// Cycle-accurate simulator of the time-multiplexed global-synapse
// interconnect (the Noxim++ substitute).
//
// The simulator consumes a spike traffic trace (one SpikePacketEvent per
// source-neuron spike, with the set of destination crossbars computed by the
// mapping flow), runs the routers cycle by cycle with backpressure and
// round-robin arbitration, and produces the conventional metrics
// (latency / energy / throughput) plus the delivery log from which the
// SNN-specific metrics (disorder, ISI distortion) are computed.
//
// The hot path is flat-array and worklist-driven (see README "NoC simulator
// architecture"): a route-compute stage calls the per-topology routing
// function (Topology::route_entry()) once per destination per hop, when a
// head flit is first considered at a router, and keeps the result with the
// flit — a per-output mask (Flit::route_mask) plus one serve port per
// destination beside the pooled destination arena — so arbitration skips
// outputs a head does not use and forking a multicast subset at a router is
// an in-place byte-compare partition instead of an allocate-copy-erase.
// Only routers with buffered flits are visited each cycle.  The cycle-level
// semantics are bit-identical to the original per-router scan engine
// (pinned by tests/noc/golden_test.cpp).
//
// Multi-chip fabrics: links the topology tags off-chip charge the distinct
// EnergyModel::offchip_link_hop_pj per traversal and delay the flit by
// NocConfig::offchip_link_latency extra cycles at the receiving router
// (Flit::ready_cycle).  Single-chip runs are bit-identical to the
// pre-off-chip engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <optional>

#include "hw/energy_model.hpp"
#include "noc/faults.hpp"
#include "noc/metrics.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"
#include "noc/wakeup.hpp"
#include "obs/congestion.hpp"
#include "obs/trace.hpp"

namespace snnmap::noc {

/// One spike offered to the interconnect.
struct SpikePacketEvent {
  std::uint64_t emit_cycle = 0;
  /// SNN timestep (ms index) of the spike; used for disorder accounting
  /// (see DeliveredSpike::emit_step).
  std::uint64_t emit_step = 0;
  std::uint32_t source_neuron = 0;
  TileId source_tile = 0;
  /// Remote crossbars holding at least one post-synaptic neuron.  Must not
  /// contain source_tile (local synapses never enter the NoC).
  std::vector<TileId> dest_tiles;
};

/// How a flit with several legal (adaptive) next hops picks one — Noxim's
/// "selection strategy".  Applies to single-destination flits under the
/// adaptive mesh routings; multi-destination (multicast) flits always take
/// each destination's first candidate.
enum class SelectionStrategy : std::uint8_t {
  kFirstCandidate,  ///< deterministic: lowest-priority candidate that fits
  kBufferLevel,     ///< congestion-aware: most free downstream buffer space
};

const char* to_string(SelectionStrategy selection) noexcept;

/// Which scheduling core run_until() uses to advance the fabric.  Both
/// engines are bit-identical on every observable — delivered streams,
/// statistics, windowed energy (including busy_cycles), fault timelines —
/// at any session chunking; tests/noc/session_chunking_test.cpp and the
/// golden fixtures pin that equivalence.
enum class NocEngine : std::uint8_t {
  /// The golden oracle: one simulate_cycle() per busy cycle, even when the
  /// whole fabric is provably stalled.
  kCycle,
  /// Wake-up-driven: a cycle whose arbitration pass moves nothing proves
  /// the fabric state is a fixed point, so now_ jumps straight to the
  /// earliest registered wake-up (parked flit ready_cycle, next traffic
  /// emission, next fault transition) — O(1) per skipped span.  Bursty
  /// low-activity traffic (dense emission windows, near-silent gaps,
  /// off-chip SerDes parking) runs order-of-magnitude faster
  /// (BM_NocIdleSkip in bench/noc_sim_benchmarks).
  kEvent,
};

const char* to_string(NocEngine engine) noexcept;

struct NocConfig {
  std::uint32_t buffer_depth = 4;  ///< flits per inter-router input FIFO
  bool multicast = true;           ///< false = source-replicated unicasts
  SelectionStrategy selection = SelectionStrategy::kFirstCandidate;
  hw::EnergyModel energy;
  /// Extra cycles a flit spends crossing an off-chip (inter-chip) link on
  /// top of the one-cycle on-chip handoff; 0 makes chip crossings as fast
  /// as on-die hops.  Irrelevant on single-chip topologies.
  std::uint32_t offchip_link_latency = 2;
  /// Scheduling core (see NocEngine).  The event engine is the default —
  /// it is bit-identical to the cycle oracle and strictly faster on sparse
  /// traffic; set kCycle to force the per-cycle loop (the oracle the golden
  /// fixtures were captured on).
  NocEngine engine = NocEngine::kEvent;
  /// Safety bound; the run reports drained=false if traffic does not
  /// complete within this many cycles.  Contract: cycle max_cycles is never
  /// simulated and traffic with emit_cycle >= max_cycles is never injected,
  /// so a session halts (halted(), drained=false) as soon as the budget is
  /// exhausted with traffic still in flight *or still queued* — identically
  /// for one-shot, windowed, and batch sessions at any chunking.  Idle
  /// virtual time is not bounded: a drained session may fast-forward a
  /// bounded window's span past max_cycles without halting.
  std::uint64_t max_cycles = 20'000'000;
  /// Seeded fault injection (see noc/faults.hpp).  Default: inert — no
  /// fault branch in the cycle loop is ever taken and every fault-free
  /// golden stream is preserved bit for bit.
  FaultConfig faults;
  /// Event tracing (see obs/trace.hpp).  Default: inert — no trace branch
  /// is ever taken and the recorded stream stays empty; when enabled the
  /// stream is a pure function of (config, topology, traffic), identical
  /// across engines and session chunkings.
  obs::TraceConfig trace;
  /// Per-link congestion monitoring over energy-window closes (see
  /// obs/congestion.hpp).  Default: disabled — close_energy_window() is
  /// unchanged and NocRunResult::congestion stays all-zero.
  obs::MonitorConfig monitor;
};

struct NocRunResult {
  NocStats stats;
  /// Computed from `delivered` (copies drained mid-session are not in it).
  SnnMetrics snn;
  std::vector<DeliveredSpike> delivered;
  /// Per-window activity/energy accounting: one sample per
  /// close_energy_window() call plus the trailing span finish() closes
  /// implicitly (a one-shot run() therefore reports a single window
  /// covering the whole trace).  Totals are bit-identical to
  /// stats.global_energy_pj by construction.
  WindowEnergyReport window_energy;
  /// Ring-retained trace events (empty with tracing disabled) plus the
  /// full-stream FNV-1a digest and record count — the digest covers every
  /// recorded event even after ring eviction.
  std::vector<obs::TraceEvent> trace;
  std::uint64_t trace_digest = 0;
  std::uint64_t trace_recorded = 0;
  /// Congestion summary (`monitored == false` when the monitor is off).
  obs::CongestionReport congestion;
};

/// Sentinel for run_until(): no cycle bound (run to drain / max_cycles).
inline constexpr std::uint64_t kNoCycleLimit =
    static_cast<std::uint64_t>(-1);

class NocSimulator {
 public:
  /// Throws std::invalid_argument on degenerate configs (buffer_depth == 0
  /// would deadlock every inter-router FIFO; max_cycles == 0 could never
  /// simulate a cycle).
  NocSimulator(Topology topology, NocConfig config);

  /// Simulates the trace to completion (or max_cycles).  The trace is sorted
  /// by emit_cycle internally; sequence numbers are assigned per source
  /// neuron in emission order.  Exactly equivalent to
  /// begin() + enqueue(traffic) + run_until(kNoCycleLimit) + finish() — the
  /// golden streams (tests/noc/golden_test.cpp) pin that equivalence.
  NocRunResult run(std::vector<SpikePacketEvent> traffic);

  // --- incremental session API (closed-loop co-simulation) ---------------
  //
  // A session interleaves traffic injection with bounded cycle advances so a
  // caller (cosim::CoSimulator) can couple the fabric to another simulator
  // in lockstep windows:
  //
  //   sim.begin();
  //   for each window: { sim.enqueue(events); sim.run_until(window_end);
  //                      consume sim.drain_delivered(); }
  //   NocRunResult tail = sim.finish();
  //
  // Flits left in flight at a window boundary simply carry into the next
  // run_until call — that carried backlog is exactly the congestion signal
  // the co-simulation measures.

  /// Resets the session: empty fabric, zeroed stats, cycle 0.
  void begin();

  /// Queues traffic events.  The not-yet-injected tail is (re)sorted with
  /// the same comparator run() uses; events with emit_cycle <= now() are
  /// injected at the next simulated cycle.
  void enqueue(std::vector<SpikePacketEvent> traffic);

  /// Advances the fabric until now() reaches `cycle_limit`, all queued and
  /// in-flight traffic drains, or max_cycles is hit (halted()).  Idle spans
  /// (no flits buffered, no traffic due) are fast-forwarded.  Returns now().
  std::uint64_t run_until(std::uint64_t cycle_limit);

  /// run_until(now() + cycles), saturating at kNoCycleLimit.
  std::uint64_t run_cycles(std::uint64_t cycles);

  /// Moves out the deliveries observed since the last drain (delivery
  /// order).  Deliveries drained here are no longer visible to the
  /// log-derived SnnMetrics finish() computes; aggregate NocStats are
  /// unaffected.
  std::vector<DeliveredSpike> drain_delivered();

  /// Closes the current energy-accounting window at now(): snapshots the
  /// activity counters (flit injections, deliveries, link/router
  /// traversals, busy cycles, per-link peaks) as exact integer deltas
  /// since the previous close, prices them at the nominal EnergyModel
  /// constants, and appends the sample to window_energy().  Callers
  /// typically close once per run_until()/run_cycles() boundary (the
  /// co-simulator closes one window per lockstep step).  O(ports) — cost
  /// is paid only at boundaries, never inside the cycle loop.  Returns the
  /// sample by value: a reference into the growing report would dangle at
  /// the next close.
  WindowEnergySample close_energy_window();

  /// Windows closed so far this session (finish() folds the trailing span
  /// into the returned NocRunResult's report).
  const WindowEnergyReport& window_energy() const noexcept {
    return window_report_;
  }

  /// Finalizes the session: duration, per-link flit summary, and SnnMetrics
  /// over the (un-drained) delivery log.  stats.drained keeps its one-shot
  /// meaning — true only when every offered packet completed (nothing
  /// queued, nothing in flight, no max_cycles halt).  The session stays
  /// consumed until the next begin().
  NocRunResult finish();

  std::uint64_t now() const noexcept { return now_; }
  /// Flit copies currently buffered in the fabric.
  std::size_t in_flight() const noexcept { return in_flight_; }
  /// True when nothing is buffered and no queued traffic remains.
  bool idle() const noexcept {
    return in_flight_ == 0 && next_event_ >= traffic_.size();
  }
  /// True once max_cycles was reached with traffic still in flight; further
  /// run_until calls are no-ops and finish() reports drained = false.
  bool halted() const noexcept { return halted_; }

  const Topology& topology() const noexcept { return topology_; }
  const NocConfig& config() const noexcept { return config_; }

  /// The session's live fault state (inert when no faults are configured).
  const FaultModel& fault_model() const noexcept { return fault_model_; }

  /// The session's event tracer.  Mutable access lets a lockstep driver
  /// (cosim::CoSimulator) interleave protocol-level events — AER retries,
  /// remap triggers, DVFS decisions — into the same deterministic stream.
  obs::Tracer& tracer() noexcept { return tracer_; }
  const obs::Tracer& tracer() const noexcept { return tracer_; }
  /// Moves out the tiles that went permanently silent (tile fault, or
  /// their router died) since the last call — the co-simulator's
  /// remap-on-failure trigger.  Empty on fault-free sessions.
  std::vector<TileId> take_dead_tiles();

 private:
  struct StagedMove {
    RouterId to_router;
    std::uint32_t to_port;
    Flit flit;
  };

  std::uint32_t& sequence_of(std::uint32_t neuron);
  Flit make_flit(const SpikePacketEvent& event, const TileId* dests,
                 std::uint32_t count);
  void inject_due();
  void maybe_compact_arena();
  /// Route-compute stage: fills `f`'s route_mask at router `r` and the
  /// serve port of each remaining destination in hop_port_ (read by the
  /// multicast split).  Valid until the flit moves on, shrinks to one destination,
  /// or a fault transition changes port liveness (each of which resets the
  /// mask to 0, so the next arbitration pass routes it afresh).
  void compute_route(RouterId r, Flit& f);
  void simulate_cycle();

  // --- fault path (every call site is gated on faults_active_) -----------
  /// True when the link behind global port `g` and the router at its far
  /// end are both live.
  // snnmap-lint: allow(hoisted-gate) -- helper for the fault path; every
  // caller is itself gated on faults_active_ (see section comment).
  bool port_live(std::uint32_t g) const noexcept {
    return fault_model_.link_live(g) &&
           fault_model_.router_live(neighbor_[g]);
  }
  /// Live next-hop ports from `r` toward `dst` whose route entry is `e`:
  /// the live route candidates, or when every one is masked the live
  /// topology fault fallbacks.  Writes them to `out` in priority order and
  /// returns the count (0 = unroutable from here).
  std::uint32_t live_candidates(RouterId r, RouterId dst,
                                const Topology::RouteEntry& e,
                                std::uint8_t out[3]) const;
  /// True when live_candidates() from `r` toward `dst` is non-empty.
  bool routable(RouterId r, RouterId dst) const;
  /// Applies every fault transition with cycle <= now(): purges dying
  /// routers' buffers, then re-prunes buffered flits whose destinations
  /// became dead or unroutable.
  void apply_fault_transitions();
  void purge_router(RouterId r);
  void sweep_unroutable();

  // --- observability (every record call site is gated on trace_active_) --
  /// Records the whole fault timeline at session begin with *scheduled*
  /// cycles (the cycle an idle fabric applies a transition batch at is
  /// chunking-dependent; the schedule is not).
  void trace_fault_schedule();
  /// Router owning global port `g` (inverse of the port_base_ prefix sums).
  RouterId router_of_port(std::uint32_t g) const;

  Topology topology_;
  NocConfig config_;
  // Flat per-port geometry, hoisted out of the cycle loop: global port index
  // port_base_[r] + p addresses (router r, inter-router port p) in
  // neighbor_/reverse_port_ and in the per-cycle staged/link counters.
  std::vector<std::uint32_t> port_base_;     // prefix sums; size n + 1
  std::vector<RouterId> neighbor_;           // neighbor router per port
  std::vector<std::uint32_t> reverse_port_;  // input port at that neighbor
  std::vector<std::uint8_t> offchip_port_;   // 1 = link crosses a chip edge
  std::vector<RouterId> tile_router_;        // tile -> attached router

  // --- session state (reset by begin(); see run() for the semantics) -----
  std::vector<Router> routers_;
  std::vector<SpikePacketEvent> traffic_;  // queued events, sorted tail
  std::size_t next_event_ = 0;             // first not-yet-injected event
  // Per-source-neuron sequence counters: flat array grown on demand for the
  // dense graph-indexed id space, hashed fallback for pathological ids.
  std::vector<std::uint32_t> seq_flat_;
  // snnmap-lint: allow(unordered-iteration) -- per-key lookup/clear only
  // (sparse overflow of seq_flat_); never iterated, order cannot leak.
  std::unordered_map<std::uint32_t, std::uint32_t> seq_map_;
  // Pooled destination arena: every in-flight flit's destination set is a
  // (begin, count) range.  Forks append the forked subset and shrink the
  // head's range in place; dead ranges are reclaimed by compaction once
  // they dominate the pool.
  std::vector<TileId> arena_;
  // Parallel to arena_: the staged serve port of each destination at its
  // flit's current router (see compute_route; meaningful only while the
  // owning flit's route_mask is nonzero).
  std::vector<std::uint8_t> hop_port_;
  std::size_t arena_live_ = 0;
  std::vector<TileId> match_;  // dests served via the current output port
  // Active-router worklist: one bit per router, scanned in id order so the
  // arbitration order (and therefore every golden stream) matches the full
  // per-router scan exactly, while idle routers cost nothing.
  std::vector<std::uint64_t> active_;
  std::vector<StagedMove> staged_;
  // staged_count_[port_base_[r] + p] = arrivals already bound for that input
  // FIFO this cycle; reset via the touched list, not a full sweep.
  std::vector<std::uint32_t> staged_count_;
  std::vector<std::uint32_t> staged_touched_;
  // Flit traversals per directed link (router, out port).
  std::vector<std::uint64_t> link_flits_;
  std::uint64_t now_ = 0;
  std::size_t in_flight_ = 0;
  bool halted_ = false;
  // --- event engine (NocEngine::kEvent; see noc/wakeup.hpp) --------------
  // Parked-flit wake-ups (ready_cycle > now + 1, i.e. off-chip SerDes
  // crossings).  Traffic emissions and fault transitions are not queued
  // here — run_until reads them straight from traffic_/fault_model_ when it
  // computes a skip target.
  WakeupQueue wake_;
  bool event_driven_ = false;  // config_.engine == kEvent, hoisted
  NocStats stats_;
  std::vector<DeliveredSpike> delivered_;
  // --- windowed energy accounting (close_energy_window) ------------------
  // Cycles simulate_cycle actually ran (idle spans fast-forward past).
  std::uint64_t busy_cycles_ = 0;
  WindowEnergyReport window_report_;
  // Counter snapshots at the last window close; the next close reports the
  // exact integer deltas.  win_link_flits_ mirrors link_flits_ so the
  // per-window hotspot peak is a subtraction, not a second counter array in
  // the cycle loop.
  std::uint64_t win_start_cycle_ = 0;
  std::uint64_t win_busy_ = 0;
  std::uint64_t win_flits_injected_ = 0;
  std::uint64_t win_copies_delivered_ = 0;
  std::uint64_t win_link_hops_ = 0;
  std::uint64_t win_offchip_link_hops_ = 0;
  std::uint64_t win_router_traversals_ = 0;
  std::vector<std::uint64_t> win_link_flits_;
  // --- fault state (rebuilt by begin(): the timeline is a pure function
  // of (topology, config.faults), so every session replays it) -----------
  FaultModel fault_model_;
  bool faults_active_ = false;
  std::vector<TileId> dead_tiles_pending_;  // for take_dead_tiles()
  std::vector<TileId> live_dests_;          // injection-time filter scratch
  // --- observability (inert by default: trace_active_ gates every record
  // call, and the monitor is only constructed when enabled) --------------
  obs::Tracer tracer_;
  bool trace_active_ = false;  // config_.trace.enabled, hoisted
  std::optional<obs::CongestionMonitor> monitor_;
  std::vector<std::uint64_t> monitor_scratch_;  // per-link window deltas
};

}  // namespace snnmap::noc
