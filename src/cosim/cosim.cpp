#include "cosim/cosim.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "util/hash.hpp"
#include "util/log.hpp"

namespace snnmap::cosim {
namespace {

// DVFS policy thresholds (see DvfsPolicy): busy fractions for the
// utilization-threshold policy, an idle fraction for deadline-slack.
constexpr double kLowUtilization = 0.25;
constexpr double kHighUtilization = 0.75;
constexpr double kSlackFraction = 0.5;
/// Windows before an AER copy's first retransmit; doubles per attempt.
constexpr std::uint64_t kBackoffWindows = 1;

/// Rewrites `config.noc` into the effective lockstep interconnect config
/// (what CoSimulator::config() reports and the internal NocSimulator
/// runs).  Runs before any validation, so it must tolerate garbage inputs
/// (the member constructors reject them right after).
CoSimConfig with_lockstep_noc(CoSimConfig config) {
  // max_cycles is a drain bound for one-shot traces; in lockstep mode the
  // virtual timeline is steps x cycles_per_timestep by construction, so a
  // long-but-healthy run must not trip it.  Raise it to cover the run (a
  // congested fabric carrying backlog to the end *is* the measured
  // behavior); a larger user-provided bound is kept.  max_cycles == 0
  // stays 0: it is a degenerate config the NocSimulator constructor
  // rejects, and raising it here would mask that error.
  const std::uint32_t cpt = config.cycles_per_timestep;
  if (cpt != 0 && config.noc.max_cycles != 0) {
    const std::uint64_t span = snn::simulation_step_count(config.snn) + 2;
    if (span <= noc::kNoCycleLimit / cpt) {
      config.noc.max_cycles =
          std::max<std::uint64_t>(config.noc.max_cycles, span * cpt);
    }
  }
  // Rate-based fault sampling needs a horizon; in lockstep mode the natural
  // one is the run's own virtual timeline.  Auto-fill only when the user
  // set rates but no horizon (an explicit horizon is respected, and a
  // zero-rate config stays untouched).  NaN/negative rates compare false
  // here and reach FaultConfig::validate() unchanged.
  noc::FaultConfig& faults = config.noc.faults;
  if (cpt != 0 && faults.rate_sampled() && faults.horizon_cycles == 0) {
    const std::uint64_t span = snn::simulation_step_count(config.snn) + 2;
    if (span <= noc::kNoCycleLimit / cpt) {
      faults.horizon_cycles = span * cpt;
    }
  }
  return config;
}

}  // namespace

const char* to_string(DvfsPolicyKind kind) noexcept {
  switch (kind) {
    case DvfsPolicyKind::kFixed: return "fixed";
    case DvfsPolicyKind::kUtilizationThreshold:
      return "utilization-threshold";
    case DvfsPolicyKind::kDeadlineSlack: return "deadline-slack";
  }
  return "?";
}

DvfsPolicyKind dvfs_policy_from_string(const std::string& name) {
  if (name == "fixed") return DvfsPolicyKind::kFixed;
  if (name == "utilization-threshold") {
    return DvfsPolicyKind::kUtilizationThreshold;
  }
  if (name == "deadline-slack") return DvfsPolicyKind::kDeadlineSlack;
  throw std::invalid_argument("unknown DVFS policy: '" + name + "'");
}

CoSimulator::CoSimulator(snn::Network& network,
                         const core::Partition& partition,
                         const core::Placement& placement,
                         noc::Topology topology, CoSimConfig config)
    : config_(with_lockstep_noc(std::move(config))),
      network_(&network),
      sim_(network, config_.snn),
      noc_(std::move(topology), config_.noc),
      partition_(partition),
      placement_(placement) {
  if (config_.cycles_per_timestep == 0) {
    throw std::invalid_argument(
        "CoSimulator: cycles_per_timestep must be >= 1 (a zero-cycle window "
        "could never carry a packet)");
  }
  if (config_.receive_queue_depth == 0) {
    throw std::invalid_argument(
        "CoSimulator: receive_queue_depth must be >= 1 (use "
        "kUnboundedReceiveQueue to disable drops)");
  }
  if (config_.injection_jitter_cycles >= config_.cycles_per_timestep) {
    throw std::invalid_argument(
        "CoSimulator: injection_jitter_cycles must be below "
        "cycles_per_timestep (a spike must be offered within its own "
        "window)");
  }
  // DVFS policy sanity (negated comparisons so NaN fails every check).
  const DvfsPolicy& dvfs = config_.dvfs;
  if (!(dvfs.min_scale > 0.0) || !(dvfs.min_scale <= 1.0)) {
    throw std::invalid_argument(
        "CoSimulator: dvfs.min_scale must be in (0, 1] (the fabric cannot "
        "run at zero or above-nominal frequency)");
  }
  // Retry protocol sanity: an enabled protocol with a zero retry budget
  // or zero timeout is a misconfiguration, not a policy.
  const AerRetryConfig& retry = config_.retry;
  if (retry.enabled) {
    if (retry.max_retries == 0) {
      throw std::invalid_argument(
          "CoSimulator: retry.max_retries must be >= 1 when the retry "
          "protocol is enabled (use enabled = false to disable retries)");
    }
    if (retry.timeout_windows == 0) {
      throw std::invalid_argument(
          "CoSimulator: retry.timeout_windows must be >= 1 when the retry "
          "protocol is enabled (a zero timeout loses every late copy "
          "before its first retry)");
    }
  }
  const std::uint32_t n = network.neuron_count();
  if (partition.neuron_count() != n) {
    throw std::invalid_argument(
        "CoSimulator: partition covers " +
        std::to_string(partition.neuron_count()) + " neurons, network has " +
        std::to_string(n));
  }
  if (!partition.is_complete()) {
    throw std::invalid_argument(
        "CoSimulator: partition must assign every neuron");
  }
  if (placement.size() != partition.crossbar_count()) {
    throw std::invalid_argument(
        "CoSimulator: placement size must match the crossbar count");
  }
  std::vector<std::uint8_t> tile_used(noc_.topology().tile_count(), 0);
  for (const noc::TileId tile : placement) {
    if (tile >= tile_used.size()) {
      throw std::invalid_argument("CoSimulator: placement tile out of range");
    }
    if (tile_used[tile]) {
      throw std::invalid_argument(
          "CoSimulator: placement maps two crossbars to one tile");
    }
    tile_used[tile] = 1;
  }

  // Remap-on-failure machinery: the remapper is constructed eagerly so a
  // partition/architecture mismatch fails at construction (not mid-run, at
  // the first fault), and the network's edge list is cached once for the
  // observed-traffic graphs each evacuation builds.
  if (config_.failure_remap.enabled) {
    remapper_.emplace(config_.failure_remap.arch, partition_,
                      config_.failure_remap.remap);
    tile_crossbar_.assign(noc_.topology().tile_count(), core::kUnassigned);
    for (core::CrossbarId k = 0;
         k < static_cast<core::CrossbarId>(placement_.size()); ++k) {
      tile_crossbar_[placement_[k]] = k;
    }
    graph_edges_.reserve(network.synapses().size());
    for (const snn::Synapse& syn : network.synapses()) {
      graph_edges_.push_back({syn.pre, syn.post, syn.weight});
    }
  }

  rebuild_mapping();  // throws on live-STDP plastic cuts

  steps_ = snn::simulation_step_count(config_.snn);
}

void CoSimulator::rebuild_mapping() {
  // Cut mask + per-neuron transport tables.  Each neuron's cut records are
  // walked once to collect its distinct destination tiles; the sorted tiles
  // number its pairs, and a counting pass by pair scatters the records into
  // pair-grouped order (stable, so CSR order holds within a pair).  Linear
  // in the records plus a sort of each neuron's distinct tiles.
  const std::uint32_t n = network_->neuron_count();
  const auto& part = partition_.assignment();
  const auto& synapses = network_->synapses();
  const auto& offsets = network_->fanout_offsets();
  const auto& order = network_->fanout_synapses();
  std::vector<std::uint8_t> cut(synapses.size(), 0);
  std::uint32_t cut_total = 0;
  for (std::size_t s = 0; s < synapses.size(); ++s) {
    cut[s] = part[synapses[s].pre] != part[synapses[s].post] ? 1 : 0;
    cut_total += cut[s];
  }

  source_tile_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    source_tile_[i] = placement_[part[i]];
  }
  dest_tiles_.clear();
  remote_pair_.resize(cut_total);
  pair_records_.resize(cut_total);
  dest_offsets_.assign(n + 1, 0);
  pair_offsets_.assign(1, 0);
  std::vector<std::uint32_t> tile_pair(noc_.topology().tile_count(),
                                       kNoPair);
  std::vector<std::uint32_t> cut_scratch;  // this neuron's cut synapses
  std::vector<std::uint32_t> cursor;       // per-pair scatter position
  std::uint32_t rb = 0;                    // this neuron's first record
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto pb = static_cast<std::uint32_t>(dest_tiles_.size());
    cut_scratch.clear();
    for (std::uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      if (!cut[order[k]]) continue;
      const noc::TileId tile = placement_[part[synapses[order[k]].post]];
      if (tile_pair[tile] == kNoPair) {
        tile_pair[tile] = 0;  // seen; numbered once the tiles are sorted
        dest_tiles_.push_back(tile);
      }
      cut_scratch.push_back(order[k]);
    }
    std::sort(dest_tiles_.begin() + pb, dest_tiles_.end());
    const auto pe = static_cast<std::uint32_t>(dest_tiles_.size());
    for (std::uint32_t p = pb; p < pe; ++p) tile_pair[dest_tiles_[p]] = p;

    const auto re = rb + static_cast<std::uint32_t>(cut_scratch.size());
    cursor.assign(pe - pb, 0);
    for (std::uint32_t r = rb; r < re; ++r) {
      const snn::NeuronId post = synapses[cut_scratch[r - rb]].post;
      remote_pair_[r] = tile_pair[placement_[part[post]]];
      ++cursor[remote_pair_[r] - pb];
    }
    for (std::uint32_t p = pb; p < pe; ++p) {
      const std::uint32_t begin = pair_offsets_.back();
      pair_offsets_.push_back(begin + cursor[p - pb]);
      cursor[p - pb] = begin;
    }
    for (std::uint32_t r = rb; r < re; ++r) {
      const snn::Synapse& syn = synapses[cut_scratch[r - rb]];
      pair_records_[cursor[remote_pair_[r] - pb]++] = {syn.post, syn.weight,
                                                       syn.delay_steps};
    }
    for (std::uint32_t p = pb; p < pe; ++p) tile_pair[dest_tiles_[p]] = kNoPair;
    dest_offsets_[i + 1] = pe;
    rb = re;
  }
  landed_.assign(dest_tiles_.size(), 0);

  sim_.cut_remote_synapses(cut);
}

std::uint32_t CoSimulator::pair_of(snn::NeuronId source,
                                   noc::TileId tile) const {
  const auto first = dest_tiles_.begin() + dest_offsets_[source];
  const auto last = dest_tiles_.begin() + dest_offsets_[source + 1];
  const auto it = std::lower_bound(first, last, tile);
  return it != last && *it == tile
             ? static_cast<std::uint32_t>(it - dest_tiles_.begin())
             : kNoPair;
}

CoSimResult CoSimulator::run() {
  if (ran_) {
    throw std::logic_error(
        "CoSimulator: run() is one-shot (the SNN engine's state is "
        "consumed); build a fresh CoSimulator for another run");
  }
  ran_ = true;
  const std::uint32_t nominal = config_.cycles_per_timestep;
  const std::uint32_t jitter = config_.injection_jitter_cycles;
  const bool bounded =
      config_.receive_queue_depth != kUnboundedReceiveQueue;
  const DvfsPolicy& dvfs = config_.dvfs;

  CoSimResult out;
  FidelityReport& fid = out.fidelity;
  fid.steps = steps_;
  fid.per_step_misses.assign(steps_, 0);
  fid.per_step_energy_pj.assign(steps_, 0.0);
  fid.per_step_cycles.assign(steps_, nominal);

  noc_.begin();
  // Protocol-level trace events (DVFS decisions, AER retries, remap
  // triggers) interleave with the fabric's flit-lifecycle stream on the
  // shared cycle clock; begin() configured the tracer, so `trace_on` is the
  // session's hoisted gate exactly like the NocSimulator's own.
  obs::Tracer& tracer = noc_.tracer();
  const bool trace_on = tracer.enabled();
  std::vector<std::uint64_t> emit_counter(source_tile_.size(), 0);
  std::vector<std::uint32_t> window_accepts(noc_.topology().tile_count(), 0);
  std::vector<noc::TileId> touched_tiles;
  std::vector<snn::Simulator::RemoteVerdict> verdicts;
  std::vector<noc::SpikePacketEvent> window_traffic;
  bool warned_halt = false;

  // AER retry state.  The pending map is keyed (source neuron, emission
  // step, destination tile) — exactly what a delivered copy carries, since
  // retransmits travel with their *original* emission step — and std::map's
  // sorted iteration keeps the retransmit schedule deterministic.  Expired
  // keys park in `expired` so a copy limping in after the source gave up is
  // recognized as stale rather than misread as a duplicate.
  ResilienceReport& resil = out.resilience;
  const AerRetryConfig& retry = config_.retry;
  const bool retry_on = retry.enabled;
  const bool remap_on = config_.failure_remap.enabled;
  struct RetryState {
    std::uint32_t attempts = 0;
    std::uint64_t next_retry = 0;  // step index of the next retransmit
    std::uint64_t expire = 0;      // step index the entry times out at
  };
  using RetryKey = std::tuple<snn::NeuronId, std::uint64_t, noc::TileId>;
  std::map<RetryKey, RetryState> pending;
  std::set<RetryKey> expired;
  std::vector<noc::SpikePacketEvent> retrans_traffic;

  // DVFS state: the scale the next window will run at, stepped from the
  // previous window's observations (deterministic, so batch fan-out stays
  // bit-identical).  Scale-weighted activity accumulates in doubles; with
  // the fixed policy every weight is exactly 1.0, the sums stay exact
  // integers, and fabric_energy_pj reproduces the one-shot
  // NocStats::global_energy_pj bit for bit.
  double scale = 1.0;
  std::uint64_t window_start = 0;
  double prev_utilization = 0.0;
  bool prev_pressure = false;  // miss/drop/backlog in the previous window
  double weighted_codec = 0.0;
  double weighted_link = 0.0;  // on-chip hops only
  double weighted_offchip = 0.0;
  double weighted_router = 0.0;
  const auto next_scale = [&](double current) {
    switch (dvfs.kind) {
      case DvfsPolicyKind::kFixed: return 1.0;
      case DvfsPolicyKind::kUtilizationThreshold:
        if (prev_utilization > kHighUtilization) {
          return std::min(1.0, current * 2.0);
        }
        if (prev_utilization < kLowUtilization) {
          return std::max(dvfs.min_scale, current * 0.5);
        }
        return current;
      case DvfsPolicyKind::kDeadlineSlack:
        if (prev_pressure) return 1.0;  // missed timing: back to nominal
        if (1.0 - prev_utilization >= kSlackFraction) {
          return std::max(dvfs.min_scale, current * 0.5);
        }
        return current;
    }
    return 1.0;
  };

  for (std::uint64_t t = 0; t < steps_; ++t) {
    // 0. Pick this window's fabric frequency (first window runs nominal —
    //    there is nothing observed yet).
    if (t > 0) scale = next_scale(scale);
    std::uint32_t window_cycles = nominal;
    if (scale < 1.0) {
      window_cycles = static_cast<std::uint32_t>(
          static_cast<double>(nominal) * scale + 0.5);
      // A window must fit the encoder jitter and carry >= 1 cycle.
      window_cycles = std::max<std::uint32_t>(window_cycles, jitter + 1);
    }
    const std::uint64_t window_end = window_start + window_cycles;
    if (trace_on && dvfs.kind != DvfsPolicyKind::kFixed) {
      tracer.record(window_start, obs::TraceEventType::kDvfsDecision,
                    window_cycles, nominal, t);
    }

    // 1. Integrate step t with deliveries deferred.
    sim_.step_deferred();
    const std::vector<snn::NeuronId>& spikes = sim_.deferred_spikes();

    // 2. Encode this step's remote fan-out as AER multicast packets.
    window_traffic.clear();
    for (const snn::NeuronId i : spikes) {
      const std::uint32_t db = dest_offsets_[i];
      const std::uint32_t de = dest_offsets_[i + 1];
      if (db == de) continue;  // purely local fan-out
      noc::SpikePacketEvent ev;
      ev.source_neuron = i;
      ev.source_tile = source_tile_[i];
      ev.emit_step = t;
      ev.emit_cycle =
          window_start +
          (jitter != 0
               ? util::spike_jitter_hash(i, emit_counter[i]) % jitter
               : 0);
      ++emit_counter[i];
      ev.dest_tiles.assign(dest_tiles_.begin() + db,
                           dest_tiles_.begin() + de);
      ++fid.packets_offered;
      fid.copies_offered += de - db;
      window_traffic.push_back(std::move(ev));
    }
    if (!window_traffic.empty()) {
      noc_.enqueue(std::move(window_traffic));
      window_traffic.clear();
    }

    // 3. Advance the fabric one window, then price its activity at the
    //    frequency it ran at.
    if (!noc_.halted()) {
      noc_.run_until(window_end);
    } else if (!warned_halt) {
      util::log_warn(
          "CoSimulator: NoC hit max_cycles; remaining traffic counts as "
          "undelivered");
      warned_halt = true;
    }
    const noc::WindowEnergySample sample = noc_.close_energy_window();
    const double realized =
        static_cast<double>(window_cycles) / static_cast<double>(nominal);
    const double escale = hw::EnergyModel::dvfs_energy_scale(realized);
    weighted_codec += escale * static_cast<double>(sample.codec_events());
    weighted_link += escale * static_cast<double>(sample.link_hops -
                                                  sample.offchip_link_hops);
    weighted_offchip +=
        escale * static_cast<double>(sample.offchip_link_hops);
    weighted_router +=
        escale * static_cast<double>(sample.router_traversals);
    const double step_energy = escale * sample.energy_pj;
    fid.per_step_energy_pj[t] = step_energy;
    fid.per_step_cycles[t] = window_cycles;
    fid.window_energy_pj.add(step_energy);
    fid.freq_scale.add(realized);
    fid.window_busy_cycles.add(static_cast<double>(sample.busy_cycles));
    fid.window_peak_link_flits.add(
        static_cast<double>(sample.peak_link_flits));
    const std::uint64_t pressure_before =
        fid.deadline_misses + fid.receive_drops;

    // 4. Convert deliveries back to synaptic arrivals.  In-window copies
    //    (emitted this step) flush with exact local timing; late copies
    //    re-enter the destination crossbar now, which stretches their
    //    effective synaptic delay by the windows they spent in flight.
    for (const noc::TileId tile : touched_tiles) window_accepts[tile] = 0;
    touched_tiles.clear();
    const auto delivered = noc_.drain_delivered();
    for (const noc::DeliveredSpike& d : delivered) {
      const std::uint64_t transit = d.recv_cycle - d.emit_cycle;
      ++fid.copies_arrived;
      fid.transit_cycles.add(static_cast<double>(transit));

      if (bounded) {
        if (window_accepts[d.dest_tile] == 0) {
          touched_tiles.push_back(d.dest_tile);
        }
        if (++window_accepts[d.dest_tile] > config_.receive_queue_depth) {
          ++fid.receive_drops;
          continue;  // dropped at the decoder: these events never happen
        }
      }
      ++fid.copies_accepted;
      if (d.emit_step == t) {
        // Emitted this step, so the mapping the copy was routed under is
        // still live and its pair exists.
        landed_[pair_of(d.source_neuron, d.dest_tile)] = 1;
      } else {
        ++fid.deadline_misses;
        ++fid.per_step_misses[d.emit_step];
        bool apply = true;
        if (retry_on) {
          // First arrival of a (spike, destination) pair settles its retry
          // entry; anything after that is a duplicate (both the original
          // and a retransmit made it) or stale (the source already gave up
          // and the loss was accounted) and must not be applied twice.
          const RetryKey key{d.source_neuron, d.emit_step, d.dest_tile};
          const auto it = pending.find(key);
          if (it != pending.end()) {
            if (it->second.attempts > 0) ++resil.retry_recoveries;
            pending.erase(it);
          } else if (expired.erase(key) != 0) {
            ++resil.stale_arrivals;
            apply = false;
          } else {
            ++resil.duplicate_arrivals;
            apply = false;
          }
        }
        if (!apply) continue;
        // Late arrival: apply this copy's fan-out records on the
        // destination crossbar with local synaptic timing from *now*.  A
        // remap since emission may have left the pair without records.
        const std::uint32_t k = pair_of(d.source_neuron, d.dest_tile);
        if (k == kNoPair) continue;
        for (std::uint32_t r = pair_offsets_[k]; r < pair_offsets_[k + 1];
             ++r) {
          const Record& rec = pair_records_[r];
          sim_.inject_remote(rec.post, static_cast<double>(rec.weight),
                             rec.delay);
        }
      }
    }

    // 5. Flush step t: local records deliver unconditionally; cut records
    //    deliver exactly when their packet copy landed in-window.
    verdicts.clear();
    verdicts.reserve(sim_.deferred_remote_records());
    for (const snn::NeuronId i : spikes) {
      const std::uint32_t rb = pair_offsets_[dest_offsets_[i]];
      const std::uint32_t re = pair_offsets_[dest_offsets_[i + 1]];
      for (std::uint32_t r = rb; r < re; ++r) {
        verdicts.push_back(landed_[remote_pair_[r]] != 0
                               ? snn::Simulator::RemoteVerdict::kDeliver
                               : snn::Simulator::RemoteVerdict::kWithhold);
      }
    }
    sim_.flush_deferred(verdicts);

    // 6. Feed the DVFS policy: how busy was the window, and did anything
    //    miss its deadline (late accept, drop, or carried backlog)?
    prev_utilization = sample.utilization();
    prev_pressure =
        fid.deadline_misses + fid.receive_drops > pressure_before ||
        !noc_.idle();

    // 7. Retry bookkeeping: open an entry per copy of step t that failed
    //    to land in-window, then sweep the whole book — expiries first
    //    (the delivery is abandoned and the loss accounted), then due
    //    retransmits, coalesced per (source, emission step) into one
    //    multicast packet entering the fabric at the next window.
    if (retry_on) {
      for (const snn::NeuronId i : spikes) {
        const std::uint32_t db = dest_offsets_[i];
        const std::uint32_t de = dest_offsets_[i + 1];
        for (std::uint32_t k = db; k < de; ++k) {
          if (landed_[k] != 0) continue;
          pending.emplace(
              RetryKey{i, t, dest_tiles_[k]},
              RetryState{0, t + kBackoffWindows,
                         t + retry.timeout_windows});
        }
      }
      if (!pending.empty()) {
        retrans_traffic.clear();
        for (auto it = pending.begin(); it != pending.end();) {
          const RetryKey& key = it->first;
          RetryState& st = it->second;
          if (t >= st.expire) {
            ++resil.spikes_lost_timeout;
            expired.insert(key);
            it = pending.erase(it);
            continue;
          }
          if (t >= st.next_retry && st.attempts < retry.max_retries) {
            const snn::NeuronId src = std::get<0>(key);
            const std::uint64_t estep = std::get<1>(key);
            if (retrans_traffic.empty() ||
                retrans_traffic.back().source_neuron != src ||
                retrans_traffic.back().emit_step != estep) {
              noc::SpikePacketEvent ev;
              ev.source_neuron = src;
              ev.source_tile = source_tile_[src];
              ev.emit_step = estep;  // original step: always the late path
              ev.emit_cycle = window_end;
              retrans_traffic.push_back(std::move(ev));
              ++resil.retransmit_packets;
              ++fid.packets_offered;
              resil.retransmit_energy_pj +=
                  config_.noc.energy.retransmit_pj;
            }
            retrans_traffic.back().dest_tiles.push_back(std::get<2>(key));
            ++resil.retransmit_copies;
            ++fid.copies_offered;
            ++st.attempts;
            if (trace_on) {
              tracer.record(window_end, obs::TraceEventType::kAerRetry, src,
                            std::get<2>(key), st.attempts);
            }
            st.next_retry =
                t + (kBackoffWindows
                     << std::min<std::uint32_t>(st.attempts, 20U));
          }
          ++it;
        }
        if (!retrans_traffic.empty()) {
          noc_.enqueue(std::move(retrans_traffic));
          retrans_traffic.clear();
        }
      }
    }

    // Only this step's spikes can have landed pairs; clear them before a
    // remap renumbers the pairs.
    for (const snn::NeuronId i : spikes) {
      std::fill(landed_.begin() + dest_offsets_[i],
                landed_.begin() + dest_offsets_[i + 1], std::uint8_t{0});
    }

    // 8. Remap-on-failure: a tile (crossbar) that died this window gets
    //    its neurons evacuated onto live crossbars, scored against the
    //    traffic observed so far, and the transport tables + engine cut
    //    mask rebuilt — all between closed steps, so determinism holds.
    if (remap_on) {
      const std::vector<noc::TileId> dead = noc_.take_dead_tiles();
      if (!dead.empty()) {
        std::vector<core::CrossbarId> dead_xbars;
        for (const noc::TileId tile : dead) {
          const core::CrossbarId k = tile_crossbar_[tile];
          if (k != core::kUnassigned && !remapper_->crossbar_dead(k)) {
            dead_xbars.push_back(k);
          }
        }
        if (!dead_xbars.empty()) {
          const snn::SnnGraph observed = snn::SnnGraph::from_parts(
              static_cast<std::uint32_t>(source_tile_.size()), graph_edges_,
              sim_.spikes(), sim_.now_ms());
          const core::EvacuationReport rep =
              remapper_->evacuate(dead_xbars, observed);
          ++resil.remap_events;
          resil.neurons_migrated += rep.evacuated;
          if (trace_on) {
            tracer.record(window_end, obs::TraceEventType::kRemapTrigger,
                          static_cast<std::uint32_t>(dead_xbars.size()),
                          rep.evacuated, rep.stranded);
          }
          // evacuate() rescans every neuron still on dead hardware, so its
          // stranded count is the *current* stranded population, not a delta.
          resil.neurons_stranded = rep.stranded;
          partition_ = remapper_->partition();
          rebuild_mapping();
        }
      }
    }
    window_start = window_end;
  }

  resil.pending_at_end = pending.size();
  out.snn = sim_.result();
  fid.total_spikes = out.snn.total_spikes;
  fid.undelivered = fid.copies_offered - fid.copies_arrived;
  fid.fabric_energy_pj = config_.noc.energy.activity_energy_pj(
      weighted_codec, weighted_link, weighted_router, weighted_offchip);
  noc::NocRunResult nr = noc_.finish();
  out.noc = std::move(nr.stats);
  fid.congestion = std::move(nr.congestion);
  out.trace = std::move(nr.trace);
  out.trace_digest = nr.trace_digest;
  out.trace_recorded = nr.trace_recorded;
  resil.noc_faults = out.noc.fault;
  return out;
}

}  // namespace snnmap::cosim
