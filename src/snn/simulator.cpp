#include "snn/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "snn/poisson.hpp"

namespace snnmap::snn {

double SimulationResult::mean_rate_hz() const noexcept {
  if (spikes.empty() || duration_ms <= 0.0) return 0.0;
  return static_cast<double>(total_spikes) /
         static_cast<double>(spikes.size()) / duration_ms * 1000.0;
}

Simulator::Simulator(Network& network, SimulationConfig config)
    : network_(network), config_(config), rng_(config.seed) {
  // !(x > 0) instead of x <= 0 so NaN is rejected too.
  if (!(config_.dt_ms > 0.0) || !std::isfinite(config_.dt_ms)) {
    throw std::invalid_argument("Simulator: dt must be a finite value > 0 (got " +
                                std::to_string(config_.dt_ms) + ")");
  }
  if (!(config_.duration_ms >= 0.0) || !std::isfinite(config_.duration_ms)) {
    throw std::invalid_argument(
        "Simulator: duration_ms must be finite and >= 0 (got " +
        std::to_string(config_.duration_ms) + ")");
  }
  const std::uint32_t n = network_.neuron_count();
  neuron_count_ = n;
  states_.resize(n);
  group_runs_.reserve(network_.group_count());
  for (std::size_t g = 0; g < network_.group_count(); ++g) {
    const Group& grp = network_.group(g);
    GroupRun run;
    run.first = grp.first;
    run.last = grp.last();
    run.model = grp.model;
    run.lif = grp.lif;
    run.izh = grp.izh;
    run.step_spike_prob =
        poisson_step_probability(grp.poisson_rate_hz, config_.dt_ms);
    run.rate_fn = grp.rate_fn;
    group_runs_.push_back(std::move(run));
    for (NeuronId id = grp.first; id < grp.last(); ++id) {
      states_[id] = initial_state(grp.model, grp.lif, grp.izh);
    }
  }

  // Packed fan-out CSR: one contiguous (post, weight, delay, plastic) record
  // per synapse in the Network's fan-out order, replacing the
  // fanout_synapses -> Synapse double indirection in the delivery loop.
  const auto& offsets = network_.fanout_offsets();
  const auto& order = network_.fanout_synapses();
  const auto& synapses = network_.synapses();
  csr_offsets_.assign(offsets.begin(), offsets.end());
  csr_post_.resize(synapses.size());
  csr_weight_.resize(synapses.size());
  csr_delay_.resize(synapses.size());
  csr_plastic_.resize(synapses.size());
  csr_synapse_.assign(order.begin(), order.end());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Synapse& s = synapses[order[k]];
    csr_post_[k] = s.post;
    csr_weight_[k] = s.weight;
    csr_delay_[k] = s.delay_steps;
    csr_plastic_[k] = s.plastic ? 1 : 0;
  }
  fan_kind_.assign(n, kGeneralFanout);
  fan_delay_.assign(n, 1);
  fan_has_plastic_.assign(n, 0);
  for (NeuronId pre = 0; pre < n; ++pre) {
    const std::uint32_t begin = csr_offsets_[pre];
    const std::uint32_t end = csr_offsets_[pre + 1];
    if (begin == end) continue;
    bool uniform = true;
    bool contiguous = true;
    bool plastic = csr_plastic_[begin] != 0;
    for (std::uint32_t k = begin + 1; k < end; ++k) {
      uniform = uniform && csr_delay_[k] == csr_delay_[begin];
      contiguous = contiguous && csr_post_[k] == csr_post_[k - 1] + 1;
      plastic = plastic || csr_plastic_[k] != 0;
    }
    if (uniform) {
      fan_kind_[pre] = contiguous ? kContiguousFanout : kUniformFanout;
      fan_delay_[pre] = csr_delay_[begin];
    }
    fan_has_plastic_[pre] = plastic ? 1 : 0;
  }

  // Ring size from the delays actually present in the CSR, not the
  // Network's incrementally-maintained max: a caller can legally raise a
  // delay through mutable_synapses(), and an undersized ring would send the
  // wrap arithmetic in deliver_slots out of bounds.  Delays lowered to 0
  // the same way are rejected — a same-slot arrival would reach only the
  // neurons not yet stepped this dt, an order-dependent half-delivery.
  std::uint16_t max_delay = network_.max_delay_steps();
  for (const std::uint16_t d : csr_delay_) {
    if (d == 0) {
      throw std::invalid_argument("Simulator: synaptic delay must be >= 1 step");
    }
    if (d > max_delay) max_delay = d;
  }
  ring_ = static_cast<std::size_t>(max_delay) + 1;
  cut_run_offsets_.assign(n + 1, 0);
  pending_.assign(ring_ * n, 0.0);
  if (config_.syn_tau_ms > 0.0) {
    syn_current_.assign(n, 0.0);
    syn_decay_ = std::exp(-config_.dt_ms / config_.syn_tau_ms);
  }
  last_spike_ms_.assign(n, -1.0);

  // Fan-in index over plastic synapses only (for potentiation on post
  // spike), stored as (pre, fan-out slot) so STDP updates hit csr_weight_
  // directly.  Built in synapse-index order per post neuron — the same
  // iteration order as the pre-refactor engine.
  plastic_fanin_offsets_.assign(n + 1, 0);
  for (const auto& s : synapses) {
    if (s.plastic) ++plastic_fanin_offsets_[s.post + 1];
  }
  for (std::size_t i = 1; i < plastic_fanin_offsets_.size(); ++i) {
    plastic_fanin_offsets_[i] += plastic_fanin_offsets_[i - 1];
  }
  plastic_fanin_pre_.resize(plastic_fanin_offsets_.back());
  plastic_fanin_slot_.resize(plastic_fanin_offsets_.back());
  std::vector<std::uint32_t> slot_of(synapses.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) slot_of[order[k]] = k;
  std::vector<std::uint32_t> cursor(plastic_fanin_offsets_.begin(),
                                    plastic_fanin_offsets_.end() - 1);
  for (std::uint32_t idx = 0; idx < synapses.size(); ++idx) {
    if (synapses[idx].plastic) {
      const std::uint32_t at = cursor[synapses[idx].post]++;
      plastic_fanin_pre_[at] = synapses[idx].pre;
      plastic_fanin_slot_[at] = slot_of[idx];
    }
  }
}

void Simulator::deliver_slots(NeuronId neuron, std::uint32_t begin,
                              std::uint32_t end) {
  // Non-plastic fast path: no STDP checks inside the loop.  Addition order
  // over k is identical in every branch, so all three are bit-identical.
  if (begin == end) return;
  double* pending = pending_.data();
  const std::size_t n = neuron_count_;
  const std::size_t ring = ring_;
  if (fan_kind_[neuron] != kGeneralFanout) {
    std::size_t arrive = slot_ + fan_delay_[neuron];
    if (arrive >= ring) arrive -= ring;  // delay <= ring - 1, so one wrap
    double* base = pending + arrive * n;
    if (fan_kind_[neuron] == kContiguousFanout) {
      double* out = base + csr_post_[begin];
      const float* w = csr_weight_.data() + begin;
      const std::uint32_t count = end - begin;
      for (std::uint32_t j = 0; j < count; ++j) {
        out[j] += static_cast<double>(w[j]);
      }
    } else {
      for (std::uint32_t k = begin; k < end; ++k) {
        base[csr_post_[k]] += static_cast<double>(csr_weight_[k]);
      }
    }
    return;
  }
  for (std::uint32_t k = begin; k < end; ++k) {
    std::size_t arrive = slot_ + csr_delay_[k];
    if (arrive >= ring) arrive -= ring;
    pending[arrive * n + csr_post_[k]] += static_cast<double>(csr_weight_[k]);
  }
}

void Simulator::deliver_slots_plastic(std::uint32_t begin, std::uint32_t end) {
  double* pending = pending_.data();
  const std::size_t n = neuron_count_;
  const std::size_t ring = ring_;
  for (std::uint32_t k = begin; k < end; ++k) {
    std::size_t arrive = slot_ + csr_delay_[k];
    if (arrive >= ring) arrive -= ring;
    pending[arrive * n + csr_post_[k]] += static_cast<double>(csr_weight_[k]);
    if (csr_plastic_[k]) apply_stdp_on_pre(k);
  }
}

void Simulator::apply_stdp_on_pre(std::uint32_t slot) {
  const double w = stdp_update_on_pre(config_.stdp,
                                      static_cast<double>(csr_weight_[slot]),
                                      last_spike_ms_[csr_post_[slot]], now_ms_);
  const float packed = static_cast<float>(w);
  csr_weight_[slot] = packed;
  // Write through so the Network's synapse list stays the authoritative,
  // externally visible weight state at every step.
  network_.mutable_synapses()[csr_synapse_[slot]].weight = packed;
}

void Simulator::apply_stdp_on_post(NeuronId post) {
  auto& synapses = network_.mutable_synapses();
  const std::uint32_t end = plastic_fanin_offsets_[post + 1];
  for (std::uint32_t j = plastic_fanin_offsets_[post]; j < end; ++j) {
    const std::uint32_t slot = plastic_fanin_slot_[j];
    const double w = stdp_update_on_post(
        config_.stdp, static_cast<double>(csr_weight_[slot]),
        last_spike_ms_[plastic_fanin_pre_[j]], now_ms_);
    const float packed = static_cast<float>(w);
    csr_weight_[slot] = packed;
    synapses[csr_synapse_[slot]].weight = packed;
  }
}

void Simulator::on_spike(NeuronId neuron) {
  events_.push_back({neuron, now_ms_});
  ++total_spikes_;
  last_spike_ms_[neuron] = now_ms_;
  if (config_.enable_stdp) {
    // Only neurons that actually have plastic outgoing synapses pay the
    // per-record plastic checks; the rest keep the fast fan-out paths
    // (identical addition order, so still bit-identical).
    if (fan_has_plastic_[neuron]) {
      deliver_slots_plastic(csr_offsets_[neuron], csr_offsets_[neuron + 1]);
    } else {
      deliver_slots(neuron, csr_offsets_[neuron], csr_offsets_[neuron + 1]);
    }
    apply_stdp_on_post(neuron);
  } else {
    deliver_slots(neuron, csr_offsets_[neuron], csr_offsets_[neuron + 1]);
  }
}

template <bool kDeferred>
void Simulator::step_impl() {
  const std::uint32_t n = neuron_count_;
  double* arriving = pending_.data() + slot_ * n;

  // Fires one neuron: inline delivery on the normal path, a recorded id on
  // the deferred (co-simulation) path.  Deferral is exact because on_spike
  // only writes future ring slots / STDP state the remaining integration
  // never reads (see the seam contract in the header).
  const auto fire = [&](NeuronId i) {
    if constexpr (kDeferred) {
      deferred_spikes_.push_back(i);
    } else {
      on_spike(i);
    }
  };

  // Exponential synapses: fold this step's arrivals into a decaying current.
  const bool exponential = !syn_current_.empty();
  if (exponential) {
    const double decay = syn_decay_;
    for (NeuronId i = 0; i < n; ++i) {
      syn_current_[i] = syn_current_[i] * decay + arriving[i];
    }
  }
  const double* input_base = exponential ? syn_current_.data() : arriving;

  for (const GroupRun& run : group_runs_) {
    switch (run.model) {
      case NeuronModel::kPoisson:
        if (run.rate_fn) {
          for (NeuronId i = run.first; i < run.last; ++i) {
            if (poisson_step_spike(run.rate_fn(i - run.first, now_ms_),
                                   config_.dt_ms, rng_)) {
              fire(i);
            }
          }
        } else {
          // Cached constant-rate probability; Rng::chance draws nothing for
          // p <= 0, exactly like poisson_step_spike's rate <= 0 guard.
          const double p = run.step_spike_prob;
          for (NeuronId i = run.first; i < run.last; ++i) {
            if (rng_.chance(p)) fire(i);
          }
        }
        break;
      case NeuronModel::kLif: {
        const LifParams& p = run.lif;
        for (NeuronId i = run.first; i < run.last; ++i) {
          if (step_lif(states_[i], p, input_base[i], now_ms_,
                       config_.dt_ms)) {
            fire(i);
          }
        }
        break;
      }
      case NeuronModel::kIzhikevich: {
        const IzhikevichParams& p = run.izh;
        for (NeuronId i = run.first; i < run.last; ++i) {
          if (step_izhikevich(states_[i], p, input_base[i], config_.dt_ms)) {
            fire(i);
          }
        }
        break;
      }
    }
  }

  if constexpr (!kDeferred) finish_step();
}

void Simulator::finish_step() {
  const std::uint32_t n = neuron_count_;
  double* arriving = pending_.data() + slot_ * n;
  std::fill(arriving, arriving + n, 0.0);
  slot_ = slot_ + 1 == ring_ ? 0 : slot_ + 1;
  ++step_count_;
  now_ms_ = static_cast<double>(step_count_) * config_.dt_ms;
}

void Simulator::step() {
  if (in_deferred_step_) {
    throw std::logic_error(
        "Simulator: step() with a deferred step open (flush_deferred first)");
  }
  step_impl<false>();
}

void Simulator::step_deferred() {
  if (in_deferred_step_) {
    throw std::logic_error(
        "Simulator: step_deferred() with a deferred step already open");
  }
  deferred_spikes_.clear();
  in_deferred_step_ = true;
  step_impl<true>();
}

void Simulator::cut_remote_synapses(
    const std::vector<std::uint32_t>& pair_of_synapse,
    std::uint32_t pair_count) {
  // Legal before the first step *and* between closed steps (the fault path
  // re-cuts after a mid-run remap); only an open deferred step, whose
  // spikes were recorded under the old pairs, forbids it.
  if (in_deferred_step_) {
    throw std::logic_error(
        "Simulator: cut_remote_synapses with a deferred step open (its "
        "spikes were recorded under the old pairs; flush_deferred first)");
  }
  if (pair_of_synapse.size() != network_.synapses().size()) {
    throw std::invalid_argument(
        "Simulator: pair_of_synapse size must match the synapse count");
  }
  // Validate everything before mutating anything, so a rejected re-cut
  // leaves the previous assignment fully intact.
  for (std::size_t k = 0; k < csr_synapse_.size(); ++k) {
    const std::uint32_t pair = pair_of_synapse[csr_synapse_[k]];
    if (pair == kLocal) continue;
    if (pair >= pair_count) {
      throw std::invalid_argument(
          "Simulator: pair id " + std::to_string(pair) +
          " is not below pair_count " + std::to_string(pair_count));
    }
    // The plastic flag is inert while STDP is off (delivery takes the
    // non-plastic paths and weights never change), so cutting such a
    // synapse is safe; only live STDP bookkeeping forbids it.
    if (csr_plastic_[k] && config_.enable_stdp) {
      throw std::invalid_argument(
          "Simulator: a plastic synapse cannot be remote-cut while STDP is "
          "enabled (its weight would live on the remote crossbar, outside "
          "the local STDP bookkeeping)");
    }
  }
  // Run-length encode each neuron's fan-out by pair, kept only for neurons
  // with at least one cut slot (the rest flush through on_spike).
  cut_run_end_.clear();
  cut_run_pair_.clear();
  for (NeuronId pre = 0; pre < neuron_count_; ++pre) {
    const std::uint32_t begin = csr_offsets_[pre];
    const std::uint32_t end = csr_offsets_[pre + 1];
    const auto first_run = cut_run_end_.size();
    bool any_cut = false;
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t pair = pair_of_synapse[csr_synapse_[k]];
      any_cut = any_cut || pair != kLocal;
      if (cut_run_end_.size() > first_run && cut_run_pair_.back() == pair) {
        cut_run_end_.back() = k + 1;
      } else {
        cut_run_end_.push_back(k + 1);
        cut_run_pair_.push_back(pair);
      }
    }
    if (!any_cut) {
      cut_run_end_.resize(first_run);
      cut_run_pair_.resize(first_run);
    }
    cut_run_offsets_[pre + 1] = static_cast<std::uint32_t>(cut_run_end_.size());
  }
  pair_count_ = pair_count;
}

void Simulator::reject_inject(NeuronId post, std::uint16_t delay_steps) const {
  if (!in_deferred_step_) {
    throw std::logic_error(
        "Simulator: inject_remote is only legal inside an open deferred "
        "step (between step_deferred and flush_deferred)");
  }
  if (post >= neuron_count_) {
    throw std::out_of_range("Simulator: inject_remote neuron out of range");
  }
  throw std::invalid_argument(
      "Simulator: inject_remote delay must be >= 1 and within the delay "
      "ring (got " + std::to_string(delay_steps) + ")");
}

void Simulator::deliver_spike_landed(NeuronId neuron,
                                     const std::uint8_t* landed) {
  // Run by run in slot order: a run's slots share one pair, so they
  // deliver or stay withheld together, through the same fast paths (and
  // FP addition order) as on_spike.
  const bool plastic = config_.enable_stdp && fan_has_plastic_[neuron];
  std::uint32_t begin = csr_offsets_[neuron];
  const std::uint32_t last = cut_run_offsets_[neuron + 1];
  for (std::uint32_t r = cut_run_offsets_[neuron]; r < last; ++r) {
    const std::uint32_t end = cut_run_end_[r];
    const std::uint32_t pair = cut_run_pair_[r];
    if (pair == kLocal || landed[pair] != 0) {
      if (plastic) {
        deliver_slots_plastic(begin, end);
      } else {
        deliver_slots(neuron, begin, end);
      }
    }
    begin = end;
  }
}

void Simulator::flush_deferred(const std::vector<std::uint8_t>& landed) {
  if (!in_deferred_step_) {
    throw std::logic_error(
        "Simulator: flush_deferred without an open deferred step");
  }
  if (landed.size() != pair_count_) {
    throw std::invalid_argument(
        "Simulator: flush_deferred needs one landed flag per pair (expected " +
        std::to_string(pair_count_) + ", got " +
        std::to_string(landed.size()) + ")");
  }
  // Mirrors on_spike for every recorded spike, substituting the
  // landed-aware delivery for neurons with cut records.
  for (const NeuronId s : deferred_spikes_) {
    if (cut_run_offsets_[s] == cut_run_offsets_[s + 1]) {
      on_spike(s);
      continue;
    }
    events_.push_back({s, now_ms_});
    ++total_spikes_;
    last_spike_ms_[s] = now_ms_;
    deliver_spike_landed(s, landed.data());
    if (config_.enable_stdp) apply_stdp_on_post(s);
  }
  in_deferred_step_ = false;
  finish_step();
}

std::uint64_t simulation_step_count(const SimulationConfig& config) noexcept {
  // The previous round-to-nearest under-ran non-commensurate configs
  // (e.g. 10 ms at dt = 3 ms simulated only 9 ms); see the header for the
  // ceil-with-tolerance contract.
  const double ratio = config.duration_ms / config.dt_ms;
  if (!std::isfinite(ratio) || ratio < 0.0) return 0;
  return static_cast<std::uint64_t>(std::ceil(ratio * (1.0 - 1e-12)));
}

SimulationResult Simulator::run() {
  const std::uint64_t steps = simulation_step_count(config_);
  for (std::uint64_t i = 0; i < steps; ++i) step();
  return result();
}

SimulationResult Simulator::result() const {
  SimulationResult r;
  r.spikes = trains_from_events(neuron_count_, events_);
  r.duration_ms = now_ms_;
  r.total_spikes = total_spikes_;
  return r;
}

std::vector<SpikeTrain> Simulator::spikes() const {
  return trains_from_events(neuron_count_, events_);
}

}  // namespace snnmap::snn
