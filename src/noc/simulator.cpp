#include "noc/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "util/log.hpp"

namespace snnmap::noc {
namespace {

/// Source-neuron ids below this use the flat sequence-counter array (grown
/// lazily to the largest id seen); larger ids fall back to the hash map.
constexpr std::uint32_t kDenseSequenceLimit = 1u << 20;

// Route-compute stage encoding of one destination's serve port at the
// flit's current router (NocSimulator::hop_port_): the output index the
// dest leaves through, port_count() being local ejection (so a byte compares
// straight against the arbitration loop's `out`).  Ports are < 64, which
// leaves bit 6 for the reroute flag and bit 7 for the no-live-port sentinel.
constexpr std::uint8_t kHopRerouted = 0x40;  ///< primary candidate was dead
constexpr std::uint8_t kHopUnroutable = 0x80;  ///< no live port from here

/// True when `mask` has no bit above the local output index `ports`.
[[maybe_unused]] bool route_mask_fits(std::uint64_t mask,
                                      std::uint32_t ports) {
  return ports >= 63 || (mask >> (ports + 1)) == 0;
}

/// Makes room for `extra` more elements, at least doubling the capacity
/// when it grows: an exact reserve per enqueue would copy the whole vector
/// on every call of a long session.
template <typename T>
void reserve_more(std::vector<T>& v, std::size_t extra) {
  const std::size_t need = v.size() + extra;
  if (need > v.capacity()) v.reserve(std::max(need, 2 * v.capacity()));
}

}  // namespace

const char* to_string(SelectionStrategy selection) noexcept {
  switch (selection) {
    case SelectionStrategy::kFirstCandidate: return "first-candidate";
    case SelectionStrategy::kBufferLevel: return "buffer-level";
  }
  return "?";
}

const char* to_string(NocEngine engine) noexcept {
  switch (engine) {
    case NocEngine::kCycle: return "cycle";
    case NocEngine::kEvent: return "event";
  }
  return "?";
}

NocSimulator::NocSimulator(Topology topology, NocConfig config)
    : topology_(std::move(topology)), config_(config) {
  if (config_.buffer_depth == 0) {
    throw std::invalid_argument(
        "NocSimulator: buffer_depth must be >= 1 (a zero-depth FIFO could "
        "never accept a flit, so no packet would ever move)");
  }
  if (config_.max_cycles == 0) {
    throw std::invalid_argument(
        "NocSimulator: max_cycles must be >= 1 (a zero-cycle budget could "
        "never simulate any traffic)");
  }
  config_.energy.validate();  // NaN/inf/negative pJ would poison every stat
  config_.faults.validate();  // degenerate rates / missing horizon throw here
  config_.trace.validate();   // enabled zero-capacity ring throws here
  config_.monitor.validate();  // NaN alpha / negative threshold throw here
  event_driven_ = config_.engine == NocEngine::kEvent;
  // Flat per-port geometry: for global port index port_base_[r] + o,
  // neighbor_ holds the adjacent router and reverse_port_ the input-port
  // index at that neighbor through which flits sent from r arrive.
  const std::uint32_t n = topology_.router_count();
  for (RouterId r = 0; r < n; ++r) {
    // The packed route entries encode ports as uint8 (and the per-router
    // occupancy bitmask needs port_count + 1 <= 64); such fabrics are far
    // beyond anything the cycle loop is meant for.
    if (topology_.port_count(r) >= 64) {
      throw std::invalid_argument(
          "NocSimulator: router with >= 64 ports (occupancy bitmask and "
          "packed route entries cannot represent it)");
    }
  }
  port_base_.resize(n + 1);
  port_base_[0] = 0;
  for (RouterId r = 0; r < n; ++r) {
    port_base_[r + 1] = port_base_[r] + topology_.port_count(r);
  }
  neighbor_.resize(port_base_[n]);
  reverse_port_.resize(port_base_[n]);
  for (RouterId r = 0; r < n; ++r) {
    const std::uint32_t ports = topology_.port_count(r);
    for (PortId o = 0; o < ports; ++o) {
      const RouterId nb = topology_.neighbor(r, o);
      std::uint32_t back = static_cast<std::uint32_t>(-1);
      for (PortId p = 0; p < topology_.port_count(nb); ++p) {
        if (topology_.neighbor(nb, p) == r) {
          back = p;
          break;
        }
      }
      if (back == static_cast<std::uint32_t>(-1)) {
        throw std::logic_error("NocSimulator: asymmetric topology link");
      }
      neighbor_[port_base_[r] + o] = nb;
      reverse_port_[port_base_[r] + o] = back;
    }
  }
  offchip_port_.assign(port_base_[n], 0);
  for (RouterId r = 0; r < n; ++r) {
    for (PortId o = 0; o < topology_.port_count(r); ++o) {
      offchip_port_[port_base_[r] + o] =
          topology_.link_is_offchip(r, o) ? 1 : 0;
    }
  }
  tile_router_.resize(topology_.tile_count());
  for (TileId t = 0; t < topology_.tile_count(); ++t) {
    tile_router_[t] = topology_.router_of_tile(t);
  }
  begin();
}

void NocSimulator::begin() {
  const std::uint32_t n = topology_.router_count();
  routers_.clear();
  routers_.reserve(n);
  for (RouterId r = 0; r < n; ++r) {
    routers_.emplace_back(r, topology_.port_count(r), config_.buffer_depth);
  }
  traffic_.clear();
  next_event_ = 0;
  seq_flat_.clear();
  seq_map_.clear();
  arena_.clear();
  hop_port_.clear();
  arena_live_ = 0;
  active_.assign((n + 63) / 64, 0);
  staged_.clear();
  staged_count_.assign(port_base_[n], 0);
  staged_touched_.clear();
  link_flits_.assign(port_base_[n], 0);
  now_ = 0;
  in_flight_ = 0;
  halted_ = false;
  wake_.clear();
  stats_ = NocStats{};
  delivered_.clear();
  busy_cycles_ = 0;
  window_report_ = WindowEnergyReport{};
  win_start_cycle_ = 0;
  win_busy_ = 0;
  win_flits_injected_ = 0;
  win_copies_delivered_ = 0;
  win_link_hops_ = 0;
  win_offchip_link_hops_ = 0;
  win_router_traversals_ = 0;
  win_link_flits_.assign(port_base_[n], 0);
  // Rebuild the fault timeline from scratch: the schedule is a pure
  // function of (topology, config.faults), so every session replays the
  // identical fault sequence.  Default config -> inert model, and no fault
  // branch below is ever taken.
  if (config_.faults.any()) {
    fault_model_ = FaultModel(topology_, config_.faults);
    faults_active_ = fault_model_.active();
  } else {
    faults_active_ = false;
  }
  dead_tiles_pending_.clear();
  // Observability session reset.  The tracer restarts its stream and
  // digest; the fault *schedule* is recorded up front because it is a pure
  // function of (topology, config.faults) — whereas the cycle an idle
  // fabric applies a transition batch at varies with session chunking.
  tracer_.configure(config_.trace);
  trace_active_ = tracer_.enabled();
  if (trace_active_ && faults_active_) trace_fault_schedule();
  if (config_.monitor.enabled) {
    monitor_.emplace(port_base_[n], config_.monitor);
    monitor_scratch_.assign(port_base_[n], 0);
  } else {
    monitor_.reset();
  }
}

RouterId NocSimulator::router_of_port(std::uint32_t g) const {
  const auto it =
      std::upper_bound(port_base_.begin(), port_base_.end(), g);
  return static_cast<RouterId>(it - port_base_.begin() - 1);
}

// snnmap-lint: allow(hoisted-gate) -- whole function is invoked from
// begin() under `trace_active_ && faults_active_` only.
void NocSimulator::trace_fault_schedule() {
  using Change = FaultModel::Change;
  using Type = obs::TraceEventType;
  fault_model_.for_each_event([&](std::uint64_t cycle, Change change,
                                  std::uint32_t a, std::uint32_t b) {
    (void)b;  // the reverse direction of a bidirectional link
    switch (change) {
      case Change::kLinkDown:
      case Change::kLinkUp: {
        const RouterId r = router_of_port(a);
        tracer_.record(cycle,
                       change == Change::kLinkDown ? Type::kFaultLinkDown
                                                   : Type::kFaultLinkUp,
                       r, a - port_base_[r], 0);
        break;
      }
      case Change::kRouterDown:
      case Change::kRouterUp:
        tracer_.record(cycle,
                       change == Change::kRouterDown ? Type::kFaultRouterDown
                                                     : Type::kFaultRouterUp,
                       a, 0, 0);
        break;
      case Change::kTileDown:
      case Change::kTileUp:
        tracer_.record(cycle,
                       change == Change::kTileDown ? Type::kFaultTileDown
                                                   : Type::kFaultTileUp,
                       a, 0, 0);
        break;
    }
  });
}

std::vector<TileId> NocSimulator::take_dead_tiles() {
  std::vector<TileId> out;
  out.swap(dead_tiles_pending_);
  return out;
}

std::uint32_t NocSimulator::live_candidates(RouterId r, RouterId dst,
                                            const Topology::RouteEntry& e,
                                            std::uint8_t out[3]) const {
  const std::uint32_t base = port_base_[r];
  std::uint32_t count = 0;
  for (std::uint32_t c = 0; c < e.count; ++c) {
    if (port_live(base + e.port[c])) out[count++] = e.port[c];
  }
  if (count != 0) return count;
  PortId fallback[2];
  const std::uint32_t n = topology_.fault_fallback_candidates(r, dst,
                                                              fallback);
  for (std::uint32_t c = 0; c < n; ++c) {
    if (port_live(base + fallback[c])) {
      out[count++] = static_cast<std::uint8_t>(fallback[c]);
    }
  }
  return count;
}

bool NocSimulator::routable(RouterId r, RouterId dst) const {
  std::uint8_t live[3];
  return live_candidates(r, dst, topology_.route_entry(r, dst), live) != 0;
}

void NocSimulator::purge_router(RouterId r) {
  Router& router = routers_[r];
  if (router.buffered_flits() != 0) {
    std::size_t killed_flits = 0;
    std::uint64_t killed_copies = 0;
    router.for_each_flit([&](Flit& f) {
      ++killed_flits;
      killed_copies += f.dest_count;
    });
    stats_.fault.copies_killed += killed_copies;
    arena_live_ -= killed_copies;
    in_flight_ -= killed_flits;
    router.clear_queues();
  }
  active_[r >> 6] &= ~(1ULL << (r & 63));
}

// snnmap-lint: allow(hoisted-gate) -- invoked from the cycle loop under
// `faults_active_` only (mask transitions cannot happen while inert).
void NocSimulator::sweep_unroutable() {
  // Re-prune every buffered flit against the new masks: destinations that
  // died (tile or its router) or lost their last live candidate port from
  // the flit's *current* router are abandoned here, so no flit can sit in
  // a FIFO forever waiting for an output that will never be legal again.
  const std::uint32_t n = topology_.router_count();
  for (RouterId r = 0; r < n; ++r) {
    Router& router = routers_[r];
    if (router.buffered_flits() == 0) continue;
    router.for_each_flit([&](Flit& f) {
      f.route_mask = 0;  // port liveness changed: route afresh
      if (f.dest_count == 0) return;
      TileId* dests = arena_.data() + f.dest_begin;
      std::uint32_t kept = 0;
      for (std::uint32_t d = 0; d < f.dest_count; ++d) {
        const TileId dest = dests[d];
        const RouterId dst_router = tile_router_[dest];
        const bool alive =
            fault_model_.tile_live(dest) &&
            fault_model_.router_live(dst_router) &&
            (dst_router == r ||
             routable(r, dst_router));
        if (alive) {
          dests[kept++] = dest;
        } else {
          ++stats_.fault.copies_unroutable;
          --arena_live_;
        }
      }
      f.dest_count = kept;
    });
  }
}

// snnmap-lint: allow(hoisted-gate) -- invoked from the cycle loop and
// idle fast-forward under `faults_active_` only.
void NocSimulator::apply_fault_transitions() {
  if (fault_model_.next_transition_cycle() > now_) return;
  FaultTransitions tr;
  fault_model_.advance_to(now_, tr);
  stats_.fault.link_faults += tr.link_downs;
  stats_.fault.router_faults += tr.router_downs;
  stats_.fault.tile_faults += tr.tile_downs;
  stats_.fault.links_restored += tr.link_ups;
  for (const RouterId r : tr.died_routers) purge_router(r);
  dead_tiles_pending_.insert(dead_tiles_pending_.end(),
                             tr.died_tiles.begin(), tr.died_tiles.end());
  if (tr.changed) sweep_unroutable();
}

void NocSimulator::enqueue(std::vector<SpikePacketEvent> traffic) {
  std::size_t new_dests = 0;
  for (const auto& ev : traffic) new_dests += ev.dest_tiles.size();
  // Injected events are dead history (make_flit copied their dests into
  // the arena); reclaim the prefix once it dominates the queue so a long
  // windowed session holds O(one window) of traffic, not the whole run's.
  if (next_event_ >= 64 && next_event_ * 2 >= traffic_.size()) {
    traffic_.erase(traffic_.begin(),
                   traffic_.begin() + static_cast<std::ptrdiff_t>(next_event_));
    next_event_ = 0;
  }
  if (traffic_.empty()) {
    traffic_ = std::move(traffic);
  } else {
    traffic_.insert(traffic_.end(),
                    std::make_move_iterator(traffic.begin()),
                    std::make_move_iterator(traffic.end()));
  }
  // Events with identical keys keep introsort's (deterministic) tie
  // permutation: sequence numbers are assigned in this order, so the golden
  // streams pin it.  Do not replace with a keyed/stable sort.
  std::sort(traffic_.begin() + static_cast<std::ptrdiff_t>(next_event_),
            traffic_.end(),
            [](const SpikePacketEvent& a, const SpikePacketEvent& b) {
              if (a.emit_cycle != b.emit_cycle)
                return a.emit_cycle < b.emit_cycle;
              if (a.source_tile != b.source_tile)
                return a.source_tile < b.source_tile;
              return a.source_neuron < b.source_neuron;
            });
  reserve_more(arena_, new_dests * 2);
  hop_port_.reserve(arena_.capacity());
  // Exactly one delivered copy per (event, destination) on a drained run.
  reserve_more(delivered_, new_dests);
}

std::uint32_t& NocSimulator::sequence_of(std::uint32_t neuron) {
  if (neuron < kDenseSequenceLimit) {
    if (neuron >= seq_flat_.size()) {
      seq_flat_.resize(std::max<std::size_t>(neuron + 1,
                                             seq_flat_.size() * 2),
                       0);
    }
    return seq_flat_[neuron];
  }
  return seq_map_[neuron];
}

Flit NocSimulator::make_flit(const SpikePacketEvent& ev, const TileId* dests,
                             std::uint32_t count) {
  Flit f;
  f.source_neuron = ev.source_neuron;
  f.source_tile = ev.source_tile;
  f.emit_cycle = ev.emit_cycle;
  f.emit_step = ev.emit_step;
  f.sequence = sequence_of(ev.source_neuron);
  f.dest_begin = static_cast<std::uint32_t>(arena_.size());
  f.dest_count = count;
  arena_.insert(arena_.end(), dests, dests + count);
  hop_port_.resize(arena_.size());
  arena_live_ += count;
  return f;
}

void NocSimulator::inject_due() {
  const auto mark_active = [&](RouterId r) {
    active_[r >> 6] |= 1ULL << (r & 63);
  };
  while (next_event_ < traffic_.size() &&
         traffic_[next_event_].emit_cycle <= now_) {
    const SpikePacketEvent& ev = traffic_[next_event_];
    if (ev.dest_tiles.empty()) {
      throw std::invalid_argument(
          "NocSimulator: packet event with no destinations");
    }
    if (ev.source_tile >= tile_router_.size()) {
      throw std::out_of_range("Topology: tile id out of range");
    }
    for (const TileId dest : ev.dest_tiles) {
      if (dest >= tile_router_.size()) {
        throw std::out_of_range("Topology: tile id out of range");
      }
    }
    const RouterId src_router = tile_router_[ev.source_tile];
    const TileId* dests = ev.dest_tiles.data();
    auto dest_count = static_cast<std::uint32_t>(ev.dest_tiles.size());
    if (faults_active_) {
      // A dead source tile (or its router) never transmits: the spike is
      // blocked at the encoder, not lost in the fabric.
      if (!fault_model_.tile_live(ev.source_tile) ||
          !fault_model_.router_live(src_router)) {
        stats_.fault.copies_blocked_at_source += dest_count;
        ++stats_.fault.packets_blocked;
        ++next_event_;
        continue;
      }
      // Destinations that are already dead or unreachable are pruned at
      // the encoder so their copies never occupy fabric buffers.
      live_dests_.clear();
      for (std::uint32_t d = 0; d < dest_count; ++d) {
        const RouterId dst_router = tile_router_[dests[d]];
        const bool alive =
            fault_model_.tile_live(dests[d]) &&
            fault_model_.router_live(dst_router) &&
            (dst_router == src_router ||
             routable(src_router, dst_router));
        if (alive) {
          live_dests_.push_back(dests[d]);
        } else {
          ++stats_.fault.copies_unroutable;
        }
      }
      if (live_dests_.empty()) {
        ++stats_.fault.packets_blocked;
        ++next_event_;
        continue;
      }
      dests = live_dests_.data();
      dest_count = static_cast<std::uint32_t>(live_dests_.size());
    }
    Router& src = routers_[src_router];
    ++stats_.packets_injected;
    if (config_.multicast) {
      src.push(src.port_count(), make_flit(ev, dests, dest_count));
      ++stats_.flits_injected;  // one AER encode per flit copy
      ++in_flight_;
      if (trace_active_) {
        tracer_.record(now_, obs::TraceEventType::kFlitInject, src_router,
                       dest_count, ev.source_neuron);
      }
    } else {
      // Source-replicated unicast: one independent copy per destination.
      for (std::uint32_t d = 0; d < dest_count; ++d) {
        src.push(src.port_count(), make_flit(ev, &dests[d], 1));
        ++stats_.flits_injected;
        ++in_flight_;
        if (trace_active_) {
          tracer_.record(now_, obs::TraceEventType::kFlitInject, src_router,
                         1, ev.source_neuron);
        }
      }
    }
    ++sequence_of(ev.source_neuron);
    mark_active(src_router);
    ++next_event_;
  }
}

void NocSimulator::maybe_compact_arena() {
  assert(hop_port_.size() == arena_.size());
  // Compact the destination arena once dead ranges dominate it.  Staged
  // serve ports move with their dests: a routed head keeps its route.
  if (arena_.size() > 4096 && arena_.size() > 4 * (arena_live_ + 1)) {
    std::vector<TileId> compacted;
    std::vector<std::uint8_t> hops;
    compacted.reserve(arena_live_);
    hops.reserve(arena_live_);
    for (Router& router : routers_) {
      router.for_each_flit([&](Flit& f) {
        assert(route_mask_fits(f.route_mask, router.port_count()));
        const auto begin = static_cast<std::uint32_t>(compacted.size());
        compacted.insert(compacted.end(), arena_.begin() + f.dest_begin,
                         arena_.begin() + f.dest_begin + f.dest_count);
        hops.insert(hops.end(), hop_port_.begin() + f.dest_begin,
                    hop_port_.begin() + f.dest_begin + f.dest_count);
        f.dest_begin = begin;
      });
    }
    arena_ = std::move(compacted);
    hop_port_ = std::move(hops);
  }
}

void NocSimulator::compute_route(RouterId r, Flit& f) {
  const std::uint32_t ports = routers_[r].port_count();
  const std::uint64_t remote = (std::uint64_t{1} << ports) - 1;
  const TileId* dests = arena_.data() + f.dest_begin;
  std::uint8_t* hops = hop_port_.data() + f.dest_begin;
  std::uint64_t mask = 0;
  for (std::uint32_t d = 0; d < f.dest_count; ++d) {
    const RouterId dst = tile_router_[dests[d]];
    if (dst == r) {
      hops[d] = static_cast<std::uint8_t>(ports);
      mask |= std::uint64_t{1} << ports;
      continue;
    }
    const Topology::RouteEntry e = topology_.route_entry(r, dst);
    const std::uint8_t* cand = e.port;
    std::uint32_t count = e.count;
    std::uint8_t live[3];
    if (faults_active_) {
      count = live_candidates(r, dst, e, live);
      cand = live;
    }
    if (count == 0) {
      // No live port: every remote bit, so the abandon is counted at the
      // first remote output scan, exactly where arbitration meets it.
      hops[d] = kHopUnroutable;
      mask |= remote;
      continue;
    }
    // Multicast serves each destination through its first (live)
    // candidate; a lone destination may take any of them, as the
    // selection strategy decides per cycle.
    const std::uint32_t usable = f.dest_count == 1 ? count : 1;
    for (std::uint32_t c = 0; c < usable; ++c) {
      mask |= std::uint64_t{1} << cand[c];
    }
    hops[d] = cand[0] == e.port[0]
                  ? cand[0]
                  : static_cast<std::uint8_t>(cand[0] | kHopRerouted);
  }
  f.route_mask = mask;
}

void NocSimulator::simulate_cycle() {
  const std::uint64_t now = now_;

  // ---- Arbitration: each output port of each router moves <= 1 flit.
  staged_.clear();
  for (const std::uint32_t idx : staged_touched_) staged_count_[idx] = 0;
  staged_touched_.clear();

  for (std::size_t w = 0; w < active_.size(); ++w) {
    std::uint64_t bits = active_[w];
    while (bits != 0) {
      const auto r = static_cast<RouterId>((w << 6) +
                                           std::countr_zero(bits));
      bits &= bits - 1;
      Router& router = routers_[r];
      const std::uint32_t ports = router.port_count();
      const std::uint32_t base = port_base_[r];

      for (std::uint32_t out = 0; out <= ports; ++out) {
        const bool local = out == ports;
        RouterId nb = 0;
        std::uint32_t nb_port = 0;
        std::uint32_t nb_slot = 0;
        bool offchip = false;
        if (!local) {
          nb = neighbor_[base + out];
          nb_port = reverse_port_[base + out];
          nb_slot = port_base_[nb] + nb_port;
          offchip = offchip_port_[base + out] != 0;
          // Backpressure is per output this cycle; check it once instead
          // of per input.
          if (!routers_[nb].can_accept(nb_port, staged_count_[nb_slot])) {
            continue;
          }
        }
        // Round-robin over the non-empty input queues for this output:
        // rotating the occupancy mask by the round-robin pointer makes
        // ascending bit positions enumerate inputs in (start + k) %
        // inputs order (inputs <= 64 and all mask bits sit below
        // `inputs`, so the wrap around bit 63 is exactly the wrap around
        // `inputs`).
        const std::uint32_t start = router.rr_pointer(out);
        std::uint64_t pending = std::rotr(router.occupied_mask(), start);
        while (pending != 0) {
          const std::uint32_t in =
              (start + static_cast<std::uint32_t>(
                           std::countr_zero(pending))) & 63U;
          pending &= pending - 1;
          Flit& head = router.head(in);
          if (head.dest_count == 0) continue;  // fully served, pops below
          // Still on the wire: an off-chip crossing parks the flit in the
          // destination FIFO (it holds its buffer slot for backpressure)
          // until its extra serialization latency elapses.
          if (head.ready_cycle > now) continue;

          const auto deliver = [&](TileId dest) {
            DeliveredSpike d;
            d.source_neuron = head.source_neuron;
            d.source_tile = head.source_tile;
            d.dest_tile = dest;
            d.emit_cycle = head.emit_cycle;
            d.emit_step = head.emit_step;
            d.recv_cycle = now + 1;
            d.sequence = head.sequence;
            delivered_.push_back(d);
            ++stats_.copies_delivered;
            stats_.latency_cycles.add(static_cast<double>(d.latency()));
            stats_.max_latency_cycles =
                std::max(stats_.max_latency_cycles, d.latency());
            if (trace_active_) {
              tracer_.record(d.recv_cycle, obs::TraceEventType::kFlitDeliver,
                             r, dest, head.source_neuron);
            }
          };
          // Ejection and forwarding account pure activity; energy is
          // priced from these exact integer counters at window close /
          // finish (hw::EnergyModel::activity_energy_pj), so the totals
          // are independent of summation order and window boundaries.
          const auto charge_ejection = [&] {
            ++stats_.router_traversals;  // decode pairs with copies_delivered
          };
          // Stages `copy` through this output and charges the hop.  Under
          // a lossy wire (FaultConfig::flit_drop_probability) the copy may
          // vanish in transit: the wire energy is spent (link hop counted)
          // but nothing arrives — no staging, no switch traversal at the
          // far end.
          const auto forward = [&](Flit copy) {
            if (faults_active_ && fault_model_.drop_probability() > 0.0 &&
                fault_model_.draw_drop()) {
              ++stats_.link_hops;
              if (offchip) ++stats_.offchip_link_hops;
              ++link_flits_[base + out];
              ++stats_.fault.flits_dropped;
              stats_.fault.copies_dropped += copy.dest_count;
              arena_live_ -= copy.dest_count;
              if (trace_active_) {
                tracer_.record(now, obs::TraceEventType::kFlitDrop, r, out,
                               copy.source_neuron);
              }
              return;
            }
            copy.route_mask = 0;  // routed afresh at the next router
            copy.ready_cycle =
                now + 1 +
                (offchip ? std::uint64_t{config_.offchip_link_latency} : 0);
            if (trace_active_) {
              tracer_.record(now, obs::TraceEventType::kFlitHop, r, out,
                             copy.source_neuron);
              // Park condition is engine-independent (ready past the next
              // cycle), so the event records identically under kCycle.
              if (copy.ready_cycle > now + 1) {
                tracer_.record(now, obs::TraceEventType::kFlitPark, nb,
                               nb_port, copy.ready_cycle);
              }
            }
            // An off-chip crossing parks the copy past the next cycle; the
            // event engine must know when it un-parks, or a fabric whose
            // only pending work is on the SerDes would look like a dead
            // fixed point and skip past the wake-up.
            if (event_driven_ && copy.ready_cycle > now + 1) {
              wake_.schedule(copy.ready_cycle, now);
            }
            staged_.push_back({nb, nb_port, copy});
            if (staged_count_[nb_slot]++ == 0) {
              staged_touched_.push_back(nb_slot);
            }
            ++in_flight_;
            ++stats_.link_hops;
            if (offchip) ++stats_.offchip_link_hops;
            ++stats_.router_traversals;
            ++link_flits_[base + out];
          };

          // Route-compute stage: the first time a head is considered at
          // this router, route it once (compute_route); from then on an
          // output outside its mask is skipped without touching the
          // routing function.
          if (head.route_mask == 0) compute_route(r, head);
          if (((head.route_mask >> out) & 1) == 0) continue;

          if (head.dest_count == 1) {
            // Single-destination fast path: no subset to partition, and
            // the flit's arena range transfers to the forwarded copy
            // untouched.  Also the only case where the adaptive turn
            // models leave a choice to the selection strategy.
            const TileId dest = arena_[head.dest_begin];
            if (local) {
              // The mask names the local port only for an attached dest.
              deliver(dest);
              charge_ejection();
              --arena_live_;
            } else {
              const RouterId dst_router = tile_router_[dest];
              const Topology::RouteEntry e =
                  topology_.route_entry(r, dst_router);
              // Candidate set the selection strategy picks from: the turn
              // model's ports verbatim on the fault-free path, the live
              // subset (plus topology fault fallbacks when every primary
              // candidate is masked) under active faults.
              const std::uint8_t* cand = e.port;
              std::uint32_t cand_count = e.count;
              std::uint8_t live[3];
              bool rerouted = false;
              if (faults_active_) {
                cand_count = live_candidates(r, dst_router, e, live);
                if (cand_count == 0) {
                  // Every road out is dead: the copy is abandoned here
                  // (counted, never wedged) and the flit pops below.
                  ++stats_.fault.copies_unroutable;
                  --arena_live_;
                  head.dest_count = 0;
                  continue;
                }
                cand = live;
                rerouted = !port_live(base + e.port[0]);
              }
              std::uint32_t chosen = cand[0];
              if (cand_count > 1) {
                // Selection strategy: pick among the legal candidates.
                if (config_.selection ==
                    SelectionStrategy::kFirstCandidate) {
                  for (std::uint32_t c = 0; c < cand_count; ++c) {
                    const std::uint32_t g = base + cand[c];
                    const std::uint32_t cand_slot =
                        port_base_[neighbor_[g]] + reverse_port_[g];
                    if (routers_[neighbor_[g]].can_accept(
                            reverse_port_[g], staged_count_[cand_slot])) {
                      chosen = cand[c];
                      break;
                    }
                  }
                } else {  // kBufferLevel: most free downstream (ties: 1st)
                  std::size_t best_free = 0;
                  for (std::uint32_t c = 0; c < cand_count; ++c) {
                    const std::uint32_t g = base + cand[c];
                    const std::uint32_t cand_port = reverse_port_[g];
                    const std::size_t used =
                        routers_[neighbor_[g]].queue_size(cand_port) +
                        staged_count_[port_base_[neighbor_[g]] +
                                      cand_port];
                    const std::size_t free =
                        used >= config_.buffer_depth
                            ? 0
                            : config_.buffer_depth - used;
                    if (free > best_free) {
                      best_free = free;
                      chosen = cand[c];
                    }
                  }
                }
              }
              if (chosen != out) continue;
              if (rerouted) ++stats_.fault.reroutes;
              forward(head);  // range ownership moves to the copy
            }
            head.dest_count = 0;
            router.advance_rr(out);
            break;  // this output port is used for this cycle
          }

          // Multi-destination flit: split the remaining dests on their
          // staged serve ports — those leaving through `out` (local
          // ejections when out is the local port) move to match_, the rest
          // stay with the head, compacted in place with their ports.
          // Multicast always takes each destination's first (live)
          // candidate, so the split is a byte compare per destination.
          match_.clear();
          std::size_t dropped = 0;
          std::uint64_t rerouted_dests = 0;
          TileId* dests = arena_.data() + head.dest_begin;
          std::uint8_t* hops = hop_port_.data() + head.dest_begin;
          const std::uint32_t want = out | kHopRerouted;
          std::uint32_t kept = 0;
          for (std::uint32_t d = 0; d < head.dest_count; ++d) {
            const std::uint8_t hop = hops[d];
            if (static_cast<std::uint32_t>(hop | kHopRerouted) == want) {
              match_.push_back(dests[d]);
              if ((hop & kHopRerouted) != 0) ++rerouted_dests;
            } else if (hop == kHopUnroutable && !local) {
              // No live port from here: the dest leaves the flit, counted
              // once, at the first remote output scan that reaches it.
              ++dropped;
            } else {
              dests[kept] = dests[d];
              hops[kept] = hop;
              ++kept;
            }
          }
          if (dropped != 0) {
            stats_.fault.copies_unroutable += dropped;
            arena_live_ -= dropped;
          }
          // No remaining dest leaves through `out` now.  A head left with
          // one dest takes the adaptive single-destination path, whose
          // candidate set is wider: it is routed afresh.
          const auto shrink_head = [&] {
            head.dest_count = kept;
            head.route_mask = kept == 1
                                  ? 0
                                  : head.route_mask &
                                        ~(std::uint64_t{1} << out);
          };
          if (match_.empty()) {
            // Only unroutable dests went (fault path): commit the shrunken
            // set so the next output scan does not re-count them.
            shrink_head();
            continue;
          }
          stats_.fault.reroutes += rerouted_dests;

          if (local) {
            // Deliver every destination attached here (one tile per
            // router).
            for (const TileId dest : match_) deliver(dest);
            charge_ejection();
            arena_live_ -= match_.size();
          } else {
            Flit copy = head;
            if (kept != 0 || dropped != 0) {
              copy.dest_begin = static_cast<std::uint32_t>(arena_.size());
              copy.dest_count = static_cast<std::uint32_t>(match_.size());
              arena_.insert(arena_.end(), match_.begin(), match_.end());
              hop_port_.resize(arena_.size());
            }
            // else the whole set forwards through one port: the copy
            // takes over the head's range.
            forward(copy);
          }
          shrink_head();
          router.advance_rr(out);
          break;  // this output port is used for this cycle
        }
      }
      // Pop head flits whose destinations have all been served, and
      // retire fully drained routers from the worklist.
      std::uint64_t occupied = router.occupied_mask();
      while (occupied != 0) {
        const auto in =
            static_cast<std::uint32_t>(std::countr_zero(occupied));
        occupied &= occupied - 1;
        if (router.head(in).dest_count == 0) {
          router.pop(in);
          --in_flight_;
        }
      }
      if (router.all_queues_empty()) {
        active_[w] &= ~(1ULL << (r & 63));
      }
    }
  }

  // ---- Commit staged inter-router moves.
  for (const StagedMove& move : staged_) {
    routers_[move.to_router].push(move.to_port, move.flit);
    active_[move.to_router >> 6] |= 1ULL << (move.to_router & 63);
  }
}

std::uint64_t NocSimulator::run_until(std::uint64_t cycle_limit) {
  while (!halted_) {
    if (now_ >= cycle_limit) break;
    // ---- 0. Apply fault-timeline transitions due at or before `now_`
    // (before injection, so a tile that dies at cycle c never sources or
    // sinks cycle-c traffic).
    if (faults_active_) apply_fault_transitions();
    if (idle()) {
      // Drained and no traffic queued.  A bounded window still accounts
      // its full span of virtual time; an unbounded run ends "now".
      if (cycle_limit != kNoCycleLimit) now_ = cycle_limit;
      break;
    }
    // ---- 1. Budget check, *before* injection: cycle max_cycles is never
    // simulated, so traffic due at or beyond it is never injected — the
    // session halts with it still queued (counted as stranded by finish())
    // instead of absorbing packets the fabric will never move.  Reaching
    // this line means !idle(), so the halt fires identically whether the
    // leftover work is buffered flits or an uninjected tail, at any
    // chunking of the session into run_until windows.
    if (now_ >= config_.max_cycles) {
      stats_.drained = false;
      halted_ = true;
      util::log_warn("NocSimulator: max_cycles reached with ", in_flight_,
                     " flits in flight and ", traffic_.size() - next_event_,
                     " events still queued");
      break;
    }
    // ---- 2. Inject all packets emitted this cycle.
    inject_due();

    if (in_flight_ == 0) {
      if (next_event_ >= traffic_.size()) {
        if (cycle_limit != kNoCycleLimit) now_ = cycle_limit;
        break;
      }
      // Fast-forward idle gaps between traffic bursts — never past the
      // budget: traffic due at max_cycles or later halts above, it is not
      // injected.
      now_ = std::min({traffic_[next_event_].emit_cycle, cycle_limit,
                       config_.max_cycles});
      continue;
    }

    maybe_compact_arena();

    // ---- 3/4. One cycle of arbitration + staged-move commits.
    const std::uint64_t before_delivered = stats_.copies_delivered;
    const std::uint64_t before_hops = stats_.link_hops;
    const std::uint64_t before_unroutable = stats_.fault.copies_unroutable;
    const std::size_t before_in_flight = in_flight_;
    simulate_cycle();
    ++now_;
    ++busy_cycles_;

    if (!event_driven_) continue;
    // ---- 5. Event engine: a cycle that moved nothing proves the fabric
    // state is a fixed point of simulate_cycle — every ready head is
    // backpressured or arbitration-blocked by state that only changes when
    // something moves, round-robin pointers advance only on serves, and the
    // fault RNG draws only on forwards.  Every counter below is bumped by
    // each kind of movement (deliveries and forwards via copies_delivered /
    // link_hops — dropped-on-the-wire flits included —, abandoned copies
    // via copies_unroutable, pops via in_flight_), so equality means the
    // next state change can only come from outside the fabric: a parked
    // off-chip flit un-parking (wake_), a traffic emission, or a fault
    // transition.  Jump straight to the earliest one.  The skipped span
    // still counts as busy — the cycle oracle simulates (and the windowed
    // energy/DVFS accounting observes) those stalled cycles as busy ones.
    const bool progress = stats_.copies_delivered != before_delivered ||
                          stats_.link_hops != before_hops ||
                          stats_.fault.copies_unroutable !=
                              before_unroutable ||
                          in_flight_ != before_in_flight;
    if (progress) continue;
    std::uint64_t wake = wake_.next_at_or_after(now_);
    if (next_event_ < traffic_.size()) {
      wake = std::min(wake, traffic_[next_event_].emit_cycle);
    }
    if (faults_active_) {
      wake = std::min(wake, fault_model_.next_transition_cycle());
    }
    wake = std::min({wake, cycle_limit, config_.max_cycles});
    if (wake > now_) {
      busy_cycles_ += wake - now_;
      now_ = wake;
    }
  }
  return now_;
}

std::uint64_t NocSimulator::run_cycles(std::uint64_t cycles) {
  const std::uint64_t limit =
      cycles > kNoCycleLimit - now_ ? kNoCycleLimit : now_ + cycles;
  return run_until(limit);
}

std::vector<DeliveredSpike> NocSimulator::drain_delivered() {
  std::vector<DeliveredSpike> out;
  out.swap(delivered_);
  return out;
}

WindowEnergySample NocSimulator::close_energy_window() {
  WindowEnergySample s;
  s.index = window_report_.windows.size();
  s.start_cycle = win_start_cycle_;
  s.end_cycle = now_;
  s.busy_cycles = busy_cycles_ - win_busy_;
  s.flits_injected = stats_.flits_injected - win_flits_injected_;
  s.copies_delivered = stats_.copies_delivered - win_copies_delivered_;
  s.link_hops = stats_.link_hops - win_link_hops_;
  s.offchip_link_hops = stats_.offchip_link_hops - win_offchip_link_hops_;
  s.router_traversals = stats_.router_traversals - win_router_traversals_;
  const bool mon = monitor_.has_value();
  for (std::size_t i = 0; i < link_flits_.size(); ++i) {
    const std::uint64_t delta = link_flits_[i] - win_link_flits_[i];
    s.peak_link_flits = std::max(s.peak_link_flits, delta);
    win_link_flits_[i] = link_flits_[i];
    if (mon) monitor_scratch_[i] = delta;
  }
  if (mon) monitor_->observe_window(monitor_scratch_, s.end_cycle - s.start_cycle);
  s.energy_pj = config_.energy.activity_energy_pj(
      static_cast<double>(s.codec_events()),
      static_cast<double>(s.link_hops - s.offchip_link_hops),
      static_cast<double>(s.router_traversals),
      static_cast<double>(s.offchip_link_hops));
  win_start_cycle_ = now_;
  win_busy_ = busy_cycles_;
  win_flits_injected_ = stats_.flits_injected;
  win_copies_delivered_ = stats_.copies_delivered;
  win_link_hops_ = stats_.link_hops;
  win_offchip_link_hops_ = stats_.offchip_link_hops;
  win_router_traversals_ = stats_.router_traversals;

  WindowEnergyReport& r = window_report_;
  r.busy_cycles += s.busy_cycles;
  r.codec_events += s.codec_events();
  r.link_hops += s.link_hops;
  r.offchip_link_hops += s.offchip_link_hops;
  r.router_traversals += s.router_traversals;
  // Totals are exact integer sums of the deltas, i.e. exactly the session
  // counters, so this equals finish()'s stats.global_energy_pj bit for bit.
  r.total_energy_pj = config_.energy.activity_energy_pj(
      static_cast<double>(r.codec_events),
      static_cast<double>(r.link_hops - r.offchip_link_hops),
      static_cast<double>(r.router_traversals),
      static_cast<double>(r.offchip_link_hops));
  r.windows.push_back(s);
  return s;
}

NocRunResult NocSimulator::finish() {
  assert(hop_port_.size() == arena_.size());
#ifndef NDEBUG
  for (Router& router : routers_) {
    router.for_each_flit([&](const Flit& f) {
      assert(route_mask_fits(f.route_mask, router.port_count()));
    });
  }
#endif
  NocRunResult result;
  stats_.duration_cycles = now_;
  // Interconnect energy is the exact activity counters priced at the model
  // constants — independent of charge order and of where the session put
  // its window boundaries.  Encodes pair with flits_injected, decodes with
  // copies_delivered.
  stats_.global_energy_pj = config_.energy.activity_energy_pj(
      static_cast<double>(stats_.flits_injected + stats_.copies_delivered),
      static_cast<double>(stats_.link_hops - stats_.offchip_link_hops),
      static_cast<double>(stats_.router_traversals),
      static_cast<double>(stats_.offchip_link_hops));
  // Fold the trailing (never-closed) span into the window report so its
  // totals always cover the whole session; a one-shot run() thereby
  // reports one window spanning the full trace.
  if (window_report_.windows.empty() ||
      stats_.flits_injected != win_flits_injected_ ||
      stats_.copies_delivered != win_copies_delivered_ ||
      stats_.link_hops != win_link_hops_ ||
      stats_.router_traversals != win_router_traversals_ ||
      busy_cycles_ != win_busy_) {
    close_energy_window();
  }
  // "Drained" keeps its one-shot meaning for sessions: all offered traffic
  // completed.  A bounded window that left flits in flight (or queued
  // events uninjected) did not drain, max_cycles halt or not.
  stats_.drained = !halted_ && idle();
  // Undelivered leftovers — live destination copies still buffered in the
  // fabric plus the dest sets of never-injected queued events — close the
  // conservation identity copies_delivered + copies_lost() == offered for
  // non-drained sessions.  Exactly zero on drained ones.
  std::uint64_t stranded = arena_live_;
  for (std::size_t i = next_event_; i < traffic_.size(); ++i) {
    stranded += traffic_[i].dest_tiles.size();
  }
  stats_.fault.copies_stranded = stranded;
  stats_.link_flits.clear();
  const std::uint32_t n = topology_.router_count();
  for (RouterId r = 0; r < n; ++r) {
    for (std::uint32_t o = 0; o < topology_.port_count(r); ++o) {
      const std::uint64_t flits = link_flits_[port_base_[r] + o];
      if (flits == 0) continue;
      stats_.link_flits.emplace_back(
          (static_cast<std::uint64_t>(r) << 32) |
              neighbor_[port_base_[r] + o],
          flits);
    }
  }
  std::sort(stats_.link_flits.begin(), stats_.link_flits.end());
  if (monitor_) {
    result.congestion = monitor_->report();
    for (obs::HotLink& h : result.congestion.hot) {
      h.from_router = router_of_port(h.link);
      h.to_router = neighbor_[h.link];
    }
  }
  if (trace_active_) {
    result.trace = tracer_.events();
    result.trace_digest = tracer_.digest();
    result.trace_recorded = tracer_.recorded();
  }
  result.stats = stats_;
  // finish() is terminal for the session (begin() rebuilds the report), so
  // the per-window sample vector moves out instead of deep-copying.
  result.window_energy = std::move(window_report_);
  result.delivered = drain_delivered();
  result.snn = compute_snn_metrics(result.delivered);
  return result;
}

NocRunResult NocSimulator::run(std::vector<SpikePacketEvent> traffic) {
  begin();
  enqueue(std::move(traffic));
  run_until(kNoCycleLimit);
  return finish();
}

}  // namespace snnmap::noc
