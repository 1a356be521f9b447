// Closed-loop SNN x NoC co-simulation.
//
// The open-loop flow (core/framework.hpp, Fig. 4) simulates the SNN in
// isolation, flattens its spikes into an AER trace, and replays that trace
// through the NoC — so interconnect latency, congestion, and back-pressure
// never affect when a spike actually *arrives* at its post-synaptic
// crossbar.  The co-simulator closes that loop: it advances the SNN and the
// NoC in lockstep windows of `cycles_per_timestep` interconnect cycles per
// SNN step, so a mapping's congestion becomes a *behavioral* outcome
// (stretched effective synaptic delays, and — under a bounded receive
// queue — dropped spikes) instead of a latency statistic.
//
// Lockstep contract (one SNN step t):
//   1. The SNN integrates step t with deliveries deferred
//      (snn::Simulator::step_deferred).
//   2. Each spiking neuron with cross-crossbar fan-out becomes one AER
//      multicast packet, injected at cycle t * cycles_per_timestep (plus
//      optional deterministic encoder jitter).
//   3. The NoC advances to cycle (t + 1) * cycles_per_timestep
//      (noc::NocSimulator::run_until); flits that do not arrive keep
//      flowing in later windows.
//   4. Each delivery converts back to synaptic arrivals on the destination
//      crossbar: a copy received during window t' applies its fan-out
//      records at step t' + delay — i.e. NoC transit beyond the emission
//      window stretches the effective synaptic delay by (t' - t) steps.
//      In-window arrivals (t' == t) keep their exact local timing, so an
//      ideal interconnect (every packet lands in-step, drops disabled)
//      reproduces the standalone snn::Simulator run bit for bit.
//   5. Under a bounded receive queue, a destination crossbar accepts at
//      most `receive_queue_depth` packet copies per window; the excess is
//      dropped — those synaptic events never happen.
//
// Everything is deterministic: the SNN's RNG stream is untouched by
// transport, NoC arbitration is deterministic, and drops follow the
// delivery-log order, so a scenario sweep fanned out with
// util::ThreadPool::map is bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/partition.hpp"
#include "core/placement.hpp"
#include "core/runtime_remap.hpp"
#include "cosim/fidelity.hpp"
#include "hw/architecture.hpp"
#include "noc/simulator.hpp"
#include "snn/graph.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"

namespace snnmap::cosim {

/// receive_queue_depth value disabling the bounded receive queue.
inline constexpr std::uint32_t kUnboundedReceiveQueue =
    static_cast<std::uint32_t>(-1);

/// How the co-simulator rescales the fabric frequency (the per-window
/// cycle budget) between lockstep windows.
enum class DvfsPolicyKind : std::uint8_t {
  kFixed,                 ///< nominal cycles_per_timestep every window
  kUtilizationThreshold,  ///< slow when the fabric idles, speed when busy
  kDeadlineSlack,         ///< slow on slack; snap to nominal on any miss
};

const char* to_string(DvfsPolicyKind kind) noexcept;
/// Parses "fixed" / "utilization-threshold" / "deadline-slack"; throws
/// std::invalid_argument on unknown names.
DvfsPolicyKind dvfs_policy_from_string(const std::string& name);

/// Per-window dynamic frequency scaling of the interconnect fabric.  The
/// policy observes the previous window (busy fraction from the NoC's
/// WindowEnergySample, deadline misses, end-of-window backlog) and picks
/// the next window's frequency as a scale of the nominal
/// cycles_per_timestep, stepping x2 / /2 within [min_scale, 1].  Slower
/// windows carry fewer cycles, so packets take more *steps* to arrive —
/// the energy saving (hw::EnergyModel::dvfs_energy_scale) is bought with
/// transit stretch, which the fidelity report prices via the energy-delay
/// product.  Everything is deterministic: decisions depend only on the
/// deterministic simulation state.
///
/// Utilization-threshold policy: halve the frequency when the previous
/// window's busy fraction drops below 0.25, double it (up to nominal) above
/// 0.75.  Deadline-slack policy: halve the frequency when the previous
/// window ended drained with an idle fraction of at least 0.5; any deadline
/// miss, receive drop, or end-of-window backlog snaps the fabric back to
/// nominal.
struct DvfsPolicy {
  DvfsPolicyKind kind = DvfsPolicyKind::kFixed;
  /// Frequency floor as a fraction of nominal; must be in (0, 1].
  double min_scale = 0.25;
};

/// AER-boundary retry protocol: the source crossbar keeps a bounded retry
/// entry per (packet, destination) copy that failed to land within its
/// emission window, retransmits with exponential backoff (the first retry
/// one window after the miss, the next ones 2, 4, ... windows apart), and
/// abandons the delivery after a timeout (the lost synaptic events are
/// accounted in ResilienceReport::spikes_lost_timeout).  Retransmits
/// re-enter the fabric as fresh packets carrying the *original* emission
/// step, so an arrival is always matched back to the spike it carries; the
/// receiver discards duplicates (original + retry both arriving) and stale
/// copies (arriving after the source gave up).  Disabled by default — the
/// lockstep behavior is bit-identical when `enabled` is false.
struct AerRetryConfig {
  bool enabled = false;
  /// Retransmits attempted per (packet, destination) copy; >= 1 when
  /// enabled (a retry protocol that never retries is a misconfiguration).
  std::uint32_t max_retries = 3;
  /// Windows a retry entry stays open before the delivery is declared
  /// lost.  Must be >= 1 when enabled.
  std::uint32_t timeout_windows = 8;
};

/// Remap-on-failure graceful degradation: when a tile (crossbar) dies
/// mid-run — a scheduled/rated router or tile fault — the co-simulator
/// evacuates the dead crossbar's neurons through core::RuntimeRemapper
/// (forced migration onto live crossbars, chosen by observed-traffic AER
/// cost), rebuilds the transport tables, and re-cuts the SNN engine, all
/// between lockstep steps.  Disabled by default.
struct FailureRemapPolicy {
  bool enabled = false;
  /// Crossbar capacity model the evacuation migrates within (crossbar
  /// count and neurons_per_crossbar must cover the mapped partition).
  hw::Architecture arch;
  /// Remapper tuning; evacuation itself ignores the migration budget
  /// (forced moves), but the seed feeds the remapper's RNG stream.
  core::RemapConfig remap;
};

struct CoSimConfig {
  /// SNN step engine settings (dt, duration, seed, synapse model, STDP).
  snn::SimulationConfig snn;
  /// Interconnect settings.  max_cycles is raised (never lowered) to cover
  /// the run's whole lockstep timeline of steps x cycles_per_timestep
  /// virtual cycles, so it stays a safety bound rather than a mid-run
  /// cliff.
  noc::NocConfig noc;
  /// Interconnect cycles budgeted per SNN timestep (the time-multiplexing
  /// ratio; hw::Architecture::cycles_per_ms * dt_ms for a 1 ms step).
  /// Shrinking it models a slower fabric: packets start missing their
  /// emission window and spike timing degrades.
  std::uint32_t cycles_per_timestep = 1000;
  /// Packet copies a destination crossbar accepts per window before
  /// dropping (kUnboundedReceiveQueue = never drop).  0 is invalid: a
  /// crossbar that can never accept a packet is not a queue but a wall.
  std::uint32_t receive_queue_depth = kUnboundedReceiveQueue;
  /// Spread same-step injections over [0, jitter) cycles with a
  /// deterministic per-spike hash (encoder serialization); must stay below
  /// cycles_per_timestep so a spike is offered within its own window.
  /// DVFS windows are clamped to at least jitter + 1 cycles so the
  /// guarantee survives frequency scaling.
  std::uint32_t injection_jitter_cycles = 0;
  /// Per-window fabric frequency scaling (fixed = the PR 4 behavior).
  DvfsPolicy dvfs;
  /// AER-boundary retry protocol (off = PR 5 behavior, bit for bit).
  AerRetryConfig retry;
  /// Mid-run evacuation of failed crossbars (off = PR 5 behavior).
  FailureRemapPolicy failure_remap;
};

/// Everything one closed-loop run produces.
struct CoSimResult {
  snn::SimulationResult snn;  ///< spike trains under congested delivery
  FidelityReport fidelity;
  ResilienceReport resilience;  ///< fault / retry / remap accounting
  noc::NocStats noc;          ///< conventional interconnect statistics
  /// Observability capture (all empty/zero with the default NocConfig:
  /// tracing off, monitor off).  The trace stream interleaves the fabric's
  /// flit-lifecycle events with the co-simulator's protocol events (DVFS
  /// window decisions, AER retries, remap triggers) on the shared cycle
  /// clock; `trace_digest` covers every recorded event even after ring
  /// eviction.
  std::vector<obs::TraceEvent> trace;
  std::uint64_t trace_digest = 0;
  std::uint64_t trace_recorded = 0;
};

/// One closed-loop co-simulation instance over a mapped network.
///
/// The mapping (partition + placement) decides which synapses are
/// "remote-cut": a synapse whose pre and post neurons live on different
/// crossbars is carried by the NoC instead of delivered locally
/// (snn::Simulator::cut_remote_synapses).  Plastic synapses must stay
/// crossbar-local (the engine throws otherwise).
class CoSimulator {
 public:
  /// Validates the config (throws std::invalid_argument on
  /// cycles_per_timestep == 0, receive_queue_depth == 0, jitter >=
  /// cycles_per_timestep, and — via the sub-simulators — NaN/negative
  /// durations and degenerate NoC configs) and the mapping (incomplete
  /// partition, size mismatches, out-of-range or duplicate tiles).
  CoSimulator(snn::Network& network, const core::Partition& partition,
              const core::Placement& placement, noc::Topology topology,
              CoSimConfig config);

  /// Runs the whole lockstep loop (ceil(duration / dt) steps, like
  /// snn::Simulator::run) and returns trains + fidelity + NoC stats.
  /// One-shot — the SNN engine's state is consumed; a second call throws
  /// std::logic_error.
  CoSimResult run();

  /// The *effective* configuration: `noc.max_cycles` raised to the
  /// lockstep timeline, exactly as the internal NocSimulator runs it.
  const CoSimConfig& config() const noexcept { return config_; }
  std::uint64_t total_steps() const noexcept { return steps_; }

 private:
  /// (Re)derives every transport table from `partition_` + `placement_`
  /// and re-cuts the SNN engine.  Called once at construction and again
  /// after each mid-run evacuation (legal between closed steps only).
  void rebuild_mapping();

  CoSimConfig config_;
  snn::Network* network_;  // outlives the co-simulator (ctor contract)
  snn::Simulator sim_;
  noc::NocSimulator noc_;
  std::uint64_t steps_ = 0;
  bool ran_ = false;

  // Live mapping (mutated by remap-on-failure) + remap machinery.
  core::Partition partition_;
  core::Placement placement_;
  std::vector<core::CrossbarId> tile_crossbar_;  // tile -> crossbar or -1
  std::vector<snn::GraphEdge> graph_edges_;      // cached for remap traffic
  std::optional<core::RuntimeRemapper> remapper_;

  static constexpr std::uint32_t kNoPair = static_cast<std::uint32_t>(-1);

  /// One cut record as a late copy injects it.
  struct Record {
    snn::NeuronId post;
    float weight;
    std::uint16_t delay;
  };

  /// Pair index of (source, tile), or kNoPair when the source's cut records
  /// do not reach `tile` under the live mapping.
  std::uint32_t pair_of(snn::NeuronId source, noc::TileId tile) const;

  // Transport tables.  A "pair" is one (source neuron, destination tile)
  // that the neuron's cut records reach — exactly one packet copy per
  // spike.  Pairs are numbered neuron by neuron, tiles ascending, and the
  // engine gets the same numbering (Simulator::cut_remote_synapses), so
  // `landed_` is exactly the flag vector its flush reads.
  std::vector<noc::TileId> source_tile_;      // neuron -> home tile
  std::vector<std::uint32_t> dest_offsets_;   // neuron -> pair range
  std::vector<noc::TileId> dest_tiles_;       // pair -> destination tile
  /// Pair -> range of `pair_records_`, which holds each pair's records in
  /// CSR order: a late copy injects its own pair's records in the order
  /// (and FP addition order) the engine would.
  std::vector<std::uint32_t> pair_offsets_;
  std::vector<Record> pair_records_;
  /// Pair -> 1 when its copy of this step's spike landed in-window; set
  /// while draining deliveries, handed to Simulator::flush_deferred, and
  /// cleared over the step's spikes' pairs.
  std::vector<std::uint8_t> landed_;
};

}  // namespace snnmap::cosim
