// Clock-driven SNN simulator (the CARLsim substitute).
//
// Fixed-step (default 1 ms) simulation of a Network: Poisson source groups
// draw stochastic spikes, LIF/Izhikevich groups integrate synaptic currents,
// spikes propagate through a delay ring buffer, and optional pair-based STDP
// adapts plastic synapses in place.  The output — a spike train per neuron —
// is exactly what the mapping flow needs to build the spike-annotated graph
// of Sec. III.
//
// The hot path is a packed structure-of-arrays engine, bit-identical to the
// original per-neuron/AoS implementation (pinned by tests/snn/golden_*):
//
//  * step() runs one tight loop per group over its contiguous [first, last)
//    id range, with model parameters, the cached per-step Poisson spike
//    probability, and the rate_fn branch hoisted out of the inner loop;
//  * spike delivery walks a per-neuron CSR of (post, weight, delay) records
//    in fan-out order instead of double-indirecting through the Network's
//    synapse list, and accumulates into one flat ring x neuron_count pending
//    buffer;
//  * spikes are recorded into a flat (neuron, time) event log and
//    counting-sorted into per-neuron trains only when a result is requested,
//    so nothing allocates per spike in the steady state.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "snn/network.hpp"
#include "snn/spike_train.hpp"
#include "snn/stdp.hpp"
#include "util/rng.hpp"

namespace snnmap::snn {

struct SimulationConfig {
  double dt_ms = 1.0;          ///< integration step
  TimeMs duration_ms = 1000.0; ///< simulated time for run()
  std::uint64_t seed = 1;      ///< Poisson / jitter stream seed
  bool enable_stdp = false;    ///< apply STDP to plastic synapses
  StdpParams stdp;
  /// Synaptic current time constant.  0 (default) = delta synapses: an
  /// arriving spike's charge acts for exactly one step (CARLsim's CUBA
  /// current mode with instantaneous decay).  > 0 = exponential synapses:
  /// arriving charge decays as exp(-dt/tau), giving temporal summation
  /// across steps.
  double syn_tau_ms = 0.0;
};

struct SimulationResult {
  std::vector<SpikeTrain> spikes;  ///< per-neuron spike times (ms, sorted)
  TimeMs duration_ms = 0.0;
  std::uint64_t total_spikes = 0;

  /// Population mean firing rate in Hz.
  double mean_rate_hz() const noexcept;
};

/// Whole steps covering config.duration_ms: ceil(duration / dt) with a
/// relative tolerance so an exactly commensurate ratio that lands a hair
/// above an integer (FP division noise, at any magnitude) doesn't gain a
/// step.  The one step-count rule — Simulator::run() and the co-simulator's
/// lockstep loop both use it, so their timelines can never drift.  Returns
/// 0 for non-finite/negative ratios (the Simulator constructor rejects
/// such configs with a real error).
std::uint64_t simulation_step_count(const SimulationConfig& config) noexcept;

/// One simulation instance; mutates the Network's weights only when STDP is
/// enabled.  The step API supports custom experiment loops; run() covers the
/// common case.
///
/// Construction is the snapshot point: topology, weights, and delays are
/// packed into the engine's SoA arrays when the Simulator is built, and
/// Network edits made after that (mutable_synapses(), add_synapse) are not
/// seen by an already-running instance — build a fresh Simulator to pick
/// them up.  STDP weight updates flow the other way: the engine writes them
/// through to the Network, so the synapse list always shows the live
/// weights.
class Simulator {
 public:
  /// Throws std::invalid_argument when the config is unusable: dt_ms must be
  /// a finite positive number and duration_ms finite and >= 0.
  Simulator(Network& network, SimulationConfig config);

  /// Advances one dt; spikes are recorded internally.
  void step();

  /// Runs for config.duration_ms — enough whole steps to cover the duration
  /// (ceil(duration / dt), so a non-commensurate dt never under-runs) — and
  /// returns the recorded trains.
  SimulationResult run();

  /// Extracts the result accumulated so far (step API).
  SimulationResult result() const;

  TimeMs now_ms() const noexcept { return now_ms_; }
  std::uint64_t total_spikes() const noexcept { return total_spikes_; }
  /// Per-neuron trains materialized from the internal event log.
  std::vector<SpikeTrain> spikes() const;

  // --- co-simulation seam (src/cosim/) -----------------------------------
  //
  // The closed-loop co-simulator owns spike *transport*.  It tells the
  // engine which packet copy carries each cross-crossbar ("cut") synapse,
  // steps the engine with deliveries deferred, ships the step's spikes over
  // the NoC, and then flushes the step with one landed flag per copy:
  //
  //   sim.cut_remote_synapses(pair_of_synapse, pair_count);
  //                                         // before any step (and again
  //                                         // after a mid-run remap,
  //                                         // between steps)
  //   loop: sim.step_deferred();
  //         ... advance the NoC one window; apply late arrivals through
  //             sim.inject_remote(...) ...
  //         sim.flush_deferred(landed);     // finishes the step
  //
  // A "pair" is one (source neuron, destination crossbar) packet copy, so
  // every cut synapse of a pair shares its fate: a slot delivers at flush
  // time iff it is local or its pair's landed flag is set.  The engine
  // keeps each cut neuron's fan-out as runs of consecutive slots that share
  // a pair, so the flush reads one flag per run and a landed run takes the
  // same fast path as a local spike.  Deferral is
  // exact: deliveries only touch future ring slots (delay >= 1) and never
  // feed back into the current step's integration, so replaying every
  // spike's delivery/STDP sequence at flush time, in the same (neuron,
  // fan-out slot) order the inline path uses, produces the same bits.
  // With every pair landed, step_deferred() + flush_deferred() is
  // therefore bit-identical to step() (pinned by the cosim test suite).

  /// pair_of_synapse value of a synapse delivered on its own crossbar.
  static constexpr std::uint32_t kLocal = static_cast<std::uint32_t>(-1);

  /// Assigns each synapse (by Network synapse index) the packet copy that
  /// carries it, a pair id in [0, pair_count), or kLocal.  Callable before
  /// the first step and again between closed steps (the fault path
  /// re-cuts after a mid-run remap); throws std::logic_error with a
  /// deferred step open, and std::invalid_argument on a size mismatch, a
  /// pair id >= pair_count, or a cut synapse that is plastic while STDP is
  /// enabled (a cut synapse's weight lives on the remote crossbar, out of
  /// reach of the local pair-based STDP bookkeeping; with STDP off the
  /// flag is inert and the cut is safe).  A rejected call leaves the
  /// previous assignment intact.
  void cut_remote_synapses(const std::vector<std::uint32_t>& pair_of_synapse,
                           std::uint32_t pair_count);

  /// Like step(), but records the step's spikes without delivering them and
  /// leaves the step open until flush_deferred().
  void step_deferred();

  /// Neurons that fired during the open deferred step, in firing order
  /// (ascending id — groups are laid out contiguously).
  const std::vector<NeuronId>& deferred_spikes() const noexcept {
    return deferred_spikes_;
  }

  /// An externally-timed weighted arrival (a packet decoded by this
  /// crossbar during the open step): `post` receives `weight` exactly
  /// `delay_steps` steps after the open step — the timing a local spike in
  /// this step would have.  Only legal between step_deferred() and
  /// flush_deferred(); delay_steps must be within the engine's delay ring
  /// (>= 1, <= the max synaptic delay).  Inline: a late copy calls it once
  /// per record.
  void inject_remote(NeuronId post, double weight, std::uint16_t delay_steps) {
    if (!in_deferred_step_ || post >= neuron_count_ || delay_steps == 0 ||
        delay_steps >= ring_) [[unlikely]] {
      reject_inject(post, delay_steps);
    }
    std::size_t arrive = slot_ + delay_steps;
    if (arrive >= ring_) arrive -= ring_;
    pending_[arrive * neuron_count_ + post] += weight;
  }

  /// Closes the open deferred step: replays every spike's delivery/STDP
  /// sequence in the inline order, delivering a cut slot only when
  /// `landed[its pair] != 0`, then performs the end-of-step bookkeeping.
  /// Throws std::logic_error when no step is open and
  /// std::invalid_argument unless landed.size() equals the pair_count of
  /// the last cut_remote_synapses() call (0 before any).
  void flush_deferred(const std::vector<std::uint8_t>& landed);

 private:
  /// Everything step() needs for one group, hoisted out of the inner loop.
  /// Self-contained (the rate_fn is copied, not pointed at), so later group
  /// additions to the Network can never invalidate a running engine.
  struct GroupRun {
    NeuronId first = 0;
    NeuronId last = 0;  // one past end
    NeuronModel model = NeuronModel::kLif;
    LifParams lif;
    IzhikevichParams izh;
    double step_spike_prob = 0.0;  ///< Poisson P(spike per step), constant rate
    std::function<double(std::uint32_t, double)> rate_fn;  ///< may be null
  };

  void on_spike(NeuronId neuron);
  /// Integration + spiking shared by step() and step_deferred(); a deferred
  /// step records spike ids instead of calling on_spike and leaves the
  /// end-of-step bookkeeping to flush_deferred().
  template <bool kDeferred>
  void step_impl();
  /// Clears this step's consumed inputs and advances the ring/clock (the
  /// tail of the inline step()).
  void finish_step();
  /// Delivery that skips the cut slots whose pair did not land (flush
  /// path); same slot order, so the same bits as on_spike's delivery.
  void deliver_spike_landed(NeuronId neuron, const std::uint8_t* landed);
  /// Throws inject_remote's error for the first guard the call breaks.
  [[noreturn, gnu::cold]] void reject_inject(NeuronId post,
                                             std::uint16_t delay_steps) const;
  /// Delivers fan-out slots [begin, end) of `neuron` through the fast path
  /// its fan-out shape allows (no STDP).
  void deliver_slots(NeuronId neuron, std::uint32_t begin, std::uint32_t end);
  /// Delivers slots [begin, end) one by one, applying STDP to plastic ones.
  void deliver_slots_plastic(std::uint32_t begin, std::uint32_t end);
  void apply_stdp_on_pre(std::uint32_t slot);
  void apply_stdp_on_post(NeuronId post);

  Network& network_;
  SimulationConfig config_;
  util::Rng rng_;

  std::uint32_t neuron_count_ = 0;
  std::vector<GroupRun> group_runs_;
  std::vector<NeuronState> states_;

  // Packed fan-out CSR in Network fan-out order (slot k = k-th outgoing
  // synapse): csr_offsets_[pre] .. csr_offsets_[pre + 1] index the arrays.
  std::vector<std::uint32_t> csr_offsets_;
  std::vector<NeuronId> csr_post_;
  std::vector<float> csr_weight_;         ///< live weights (STDP writes here)
  std::vector<std::uint16_t> csr_delay_;
  std::vector<std::uint8_t> csr_plastic_;
  std::vector<std::uint32_t> csr_synapse_;  ///< original synapse index

  // Per-neuron fan-out shape, classified once at construction.  Most
  // connection patterns produce a single delay per projection (and
  // connect_full / one-to-one / gaussian_2d produce consecutive post ids),
  // so delivery usually skips the per-record ring arithmetic — and for
  // contiguous posts degenerates into a sequential accumulate.
  enum : std::uint8_t {
    kGeneralFanout = 0,     ///< mixed delays: per-record ring slot
    kUniformFanout = 1,     ///< one delay: hoisted ring slot, scattered posts
    kContiguousFanout = 2,  ///< one delay + consecutive posts: linear run
  };
  std::vector<std::uint8_t> fan_kind_;
  std::vector<std::uint16_t> fan_delay_;  ///< valid unless kGeneralFanout
  /// 1 if the neuron has any plastic outgoing synapse: only those need the
  /// per-record plastic checks when STDP is enabled.
  std::vector<std::uint8_t> fan_has_plastic_;

  // Co-simulation seam state (inert unless cut_remote_synapses /
  // step_deferred are used).
  // A neuron with any cut slot has its fan-out split into runs of
  // consecutive slots that share a pair (or are all local):
  // cut_run_offsets_[pre] .. cut_run_offsets_[pre + 1] index the runs, and
  // run r ends before slot cut_run_end_[r].  Neurons without cut slots
  // have no runs.
  std::vector<std::uint32_t> cut_run_offsets_;
  std::vector<std::uint32_t> cut_run_end_;
  std::vector<std::uint32_t> cut_run_pair_;  ///< pair id or kLocal
  std::uint32_t pair_count_ = 0;             ///< landed flags flush expects
  std::vector<NeuronId> deferred_spikes_;
  bool in_deferred_step_ = false;

  // Delay ring buffer, one flat ring x neuron_count block:
  // pending_[slot * neuron_count_ + neuron] = current arriving at that step.
  std::vector<double> pending_;
  std::size_t ring_ = 1;
  std::size_t slot_ = 0;
  std::vector<double> syn_current_;  // exponential-synapse state (tau > 0)
  double syn_decay_ = 0.0;           // exp(-dt / tau), 0 when disabled

  // STDP bookkeeping.
  std::vector<double> last_spike_ms_;  // per neuron, -1 = never
  // Plastic fan-in per post neuron: pre id + fan-out CSR slot of the synapse.
  std::vector<std::uint32_t> plastic_fanin_offsets_;
  std::vector<NeuronId> plastic_fanin_pre_;
  std::vector<std::uint32_t> plastic_fanin_slot_;

  std::vector<SpikeEvent> events_;  ///< flat spike log, time order
  TimeMs now_ms_ = 0.0;
  std::uint64_t step_count_ = 0;
  std::uint64_t total_spikes_ = 0;
};

}  // namespace snnmap::snn
