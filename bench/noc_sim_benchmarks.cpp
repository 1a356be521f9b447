// BM_NocSimulator: Google-benchmark suite for the NoC simulator hot path.
//
// Run via scripts/bench.sh, which writes BENCH_noc.json so the perf
// trajectory of the cycle loop is tracked PR over PR.  The headline numbers
// are simulated packets/sec (items/sec) and simulated cycles/sec
// (cycles_per_sec counter) on:
//
//  * the ablation_interconnect mesh workload (HW application mapped onto a
//    mesh at equal crossbar resources, PACMAN partition so the traffic is
//    deterministic and partitioner-noise-free),
//  * the ablation_routing right-column hotspot (adaptive routing + selection
//    under heavy backpressure),
//  * a CxQuad-style tree multicast workload,
//  * an 8x8 mesh multicast session with one NoC feature (energy windows,
//    faults, tracing, congestion monitor) on per leg.
//
// Counters that are not rates (copies_delivered, router_traversals,
// footprint_bytes, ...) are deterministic work counts per run, which
// scripts/bench_gate.py holds exactly.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "core/framework.hpp"
#include "core/pacman.hpp"
#include "hw/architecture.hpp"
#include "noc/simulator.hpp"
#include "noc/traffic_patterns.hpp"
#include "util/rng.hpp"

namespace {

using namespace snnmap;

struct NocWorkload {
  noc::Topology topology;
  noc::NocConfig config;
  std::vector<noc::SpikePacketEvent> traffic;
};

/// The ablation_interconnect mesh leg with the stochastic partitioner
/// swapped for deterministic PACMAN: same app, same equal-crossbar mesh,
/// same traffic builder.
NocWorkload ablation_mesh_workload() {
  const snn::SnnGraph graph = apps::build_app("HW", /*seed=*/42);
  const std::uint32_t crossbar =
      bench::crossbar_size_for(graph.neuron_count(), 8);
  hw::Architecture arch = hw::Architecture::sized_for(
      graph.neuron_count(), crossbar, hw::InterconnectKind::kMesh);
  const core::Partition partition = core::pacman_partition(graph, arch);
  noc::Topology topology = noc::Topology::for_architecture(arch);
  const core::Placement placement =
      core::identity_placement(arch.crossbar_count, topology);
  auto traffic = core::build_traffic(graph, partition, placement,
                                     arch.cycles_per_ms,
                                     /*jitter_cycles=*/32);
  return {std::move(topology), noc::NocConfig{}, std::move(traffic)};
}

/// The ablation_routing hotspot trace (shared generator, see
/// noc/traffic_patterns.hpp): left columns of a 4x4 mesh stream
/// single-destination packets at the two right-column sinks.
NocWorkload hotspot_workload(noc::MeshRouting routing,
                             noc::SelectionStrategy selection) {
  noc::Topology topology = noc::Topology::mesh(4, 4);
  topology.set_mesh_routing(routing);
  noc::NocConfig config;
  config.buffer_depth = 2;
  config.selection = selection;
  return {std::move(topology), config,
          noc::patterns::mesh_hotspot_traffic(/*seed=*/7, /*packets=*/3000)};
}

/// Random multicast bursts on a CxQuad-style 16-leaf tree.  This generator
/// predates traffic_patterns.hpp and draws a fixed 4 destination attempts
/// per packet (vs the shared generator's random fan-out); it stays as-is so
/// the BENCH_noc.json tree trajectory remains comparable to the recorded
/// pre-refactor baseline.
NocWorkload tree_multicast_workload() {
  util::Rng rng(11);
  std::vector<noc::SpikePacketEvent> traffic;
  for (int i = 0; i < 4000; ++i) {
    noc::SpikePacketEvent ev;
    ev.emit_cycle = static_cast<std::uint64_t>(i / 4);
    ev.emit_step = ev.emit_cycle / 8;
    ev.source_neuron = static_cast<std::uint32_t>(rng.below(128));
    ev.source_tile = static_cast<noc::TileId>(rng.below(16));
    for (std::uint32_t k = 0; k < 4; ++k) {
      const auto dest = static_cast<noc::TileId>(rng.below(16));
      if (dest == ev.source_tile) continue;
      bool seen = false;
      for (const noc::TileId have : ev.dest_tiles) seen = seen || have == dest;
      if (!seen) ev.dest_tiles.push_back(dest);
    }
    if (ev.dest_tiles.empty()) continue;
    std::sort(ev.dest_tiles.begin(), ev.dest_tiles.end());
    traffic.push_back(std::move(ev));
  }
  return {noc::Topology::tree(16, 4), noc::NocConfig{}, std::move(traffic)};
}

/// A total over all iterations reported as its per-run value.
benchmark::Counter per_run(std::uint64_t total) {
  return benchmark::Counter(static_cast<double>(total),
                            benchmark::Counter::kAvgIterations);
}

/// The simulated-throughput rates every trace-replay leg reports.
void set_rates(benchmark::State& state, std::size_t packets,
               std::uint64_t cycles, std::uint64_t delivered) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets));
  state.counters["cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["delivered_per_sec"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kIsRate);
}

void run_workload(benchmark::State& state, const NocWorkload& workload) {
  std::uint64_t cycles = 0;
  std::uint64_t delivered = 0;
  std::uint64_t traversals = 0;
  for (auto _ : state) {
    noc::NocSimulator sim(workload.topology, workload.config);
    const auto result = sim.run(workload.traffic);
    benchmark::DoNotOptimize(result.stats.copies_delivered);
    cycles += result.stats.duration_cycles;
    delivered += result.stats.copies_delivered;
    traversals += result.stats.router_traversals;
  }
  set_rates(state, workload.traffic.size(), cycles, delivered);
  state.counters["copies_delivered"] = per_run(delivered);
  state.counters["router_traversals"] = per_run(traversals);
}

void BM_NocSimulator_AblationMesh(benchmark::State& state) {
  static const NocWorkload workload = ablation_mesh_workload();
  run_workload(state, workload);
}
BENCHMARK(BM_NocSimulator_AblationMesh);

void BM_NocSimulator_MeshHotspotAdaptive(benchmark::State& state) {
  static const NocWorkload workload = hotspot_workload(
      noc::MeshRouting::kWestFirst, noc::SelectionStrategy::kBufferLevel);
  run_workload(state, workload);
}
BENCHMARK(BM_NocSimulator_MeshHotspotAdaptive);

void BM_NocSimulator_MeshHotspotXY(benchmark::State& state) {
  static const NocWorkload workload = hotspot_workload(
      noc::MeshRouting::kXY, noc::SelectionStrategy::kFirstCandidate);
  run_workload(state, workload);
}
BENCHMARK(BM_NocSimulator_MeshHotspotXY);

void BM_NocSimulator_TreeMulticast(benchmark::State& state) {
  static const NocWorkload workload = tree_multicast_workload();
  run_workload(state, workload);
}
BENCHMARK(BM_NocSimulator_TreeMulticast);

// --- Event-driven engine: bursty low-activity idle-skip -------------------
//
// The workload the event engine exists for: short dense multicast bursts
// separated by long silent gaps, on a two-chip mesh whose boundary SerDes
// latency parks every cross-chip flit for thousands of cycles.  The cycle
// engine (engine=0) burns one simulate_cycle() per parked cycle; the event
// engine (engine=1) charges O(1) per skipped span.  Both produce
// bit-identical results (pinned by tests/noc/session_chunking_test.cpp);
// compare the cycles_per_sec counter between the two legs — the acceptance
// bar for the event engine is >= 10x on this scenario.

NocWorkload idle_skip_workload(noc::NocEngine engine) {
  noc::Topology topology = noc::Topology::mesh(4, 4);
  topology.assign_chips(2);
  noc::NocConfig config;
  config.engine = engine;
  config.offchip_link_latency = 4000;
  util::Rng rng(21);
  std::vector<noc::SpikePacketEvent> traffic;
  std::uint32_t neuron = 0;
  for (std::uint64_t burst = 0; burst < 256; ++burst) {
    const std::uint64_t at = burst * 8192;  // ~8k-cycle near-silent gaps
    for (std::uint32_t p = 0; p < 4; ++p) {
      noc::SpikePacketEvent ev;
      ev.emit_cycle = at + p;
      ev.emit_step = burst;
      ev.source_neuron = neuron++;
      // Cross-chip multicast: tiles 0-7 are chip 0, 8-15 chip 1.
      ev.source_tile = static_cast<noc::TileId>(rng.below(8));
      ev.dest_tiles = {static_cast<noc::TileId>(8 + rng.below(8)),
                       static_cast<noc::TileId>(rng.below(8))};
      if (ev.dest_tiles[1] == ev.source_tile) ev.dest_tiles[1] = 7;
      if (ev.dest_tiles[1] == ev.source_tile) ev.dest_tiles[1] = 6;
      traffic.push_back(std::move(ev));
    }
  }
  return {std::move(topology), config, std::move(traffic)};
}

void BM_NocIdleSkip(benchmark::State& state) {
  static const NocWorkload cycle_workload =
      idle_skip_workload(noc::NocEngine::kCycle);
  static const NocWorkload event_workload =
      idle_skip_workload(noc::NocEngine::kEvent);
  run_workload(state,
               state.range(0) == 0 ? cycle_workload : event_workload);
}
BENCHMARK(BM_NocIdleSkip)
    ->ArgNames({"engine"})  // 0=cycle 1=event
    ->Arg(0)
    ->Arg(1);

// --- Feature overhead: one windowed session, one feature on -------------
//
// Every leg replays the same 8x8 XY mesh multicast trace as one windowed
// session (begin, enqueue, run_until in kFeatureWindow-cycle windows until
// the fabric drains, finish) and turns on exactly one NoC feature, so a
// leg's rates against the `none` leg are that feature's cost:
//
//  * none    — the default NocConfig, the baseline the other legs are
//              read against.  Every fault, trace and monitor branch is
//              gated off.
//  * windows — close_energy_window() after every window (a counter
//              snapshot plus one O(ports) link-peak scan per boundary).
//  * faults  — heavy seeded degradation (link, router and tile faults,
//              frequent transients, lossy wires): the reroute/prune/purge
//              paths run hot, and every begin() rebuilds the timeline.
//  * trace   — tracing into a 64Ki ring: every inject/hop/park/deliver
//              pays a record(); events_per_sec is the tracer's throughput.
//  * monitor — windows closed as in `windows`, with the congestion monitor
//              fed at every close.
//
// The per-run counters tell a throughput change apart from a workload
// change: copies_delivered is equal on every leg but `faults` (observing
// never changes the simulation), and the fault timeline does not depend on
// the session's chunking.

enum class Feature { kNone, kWindows, kFaults, kTrace, kMonitor };

/// Cycles per run_until window: the trace drains in ~1.5k cycles, so a run
/// closes ~150 windows.
constexpr std::uint64_t kFeatureWindow = 10;

noc::NocConfig feature_config(Feature feature) {
  noc::NocConfig config;
  if (feature == Feature::kFaults) {
    noc::FaultConfig& f = config.faults;
    f.seed = 909;
    // Keep the horizon inside the drain time so the random faults land
    // while traffic is still flowing.
    f.horizon_cycles = 1'500;
    f.link_fault_rate = 0.10;
    f.router_fault_rate = 0.03;
    f.tile_fault_rate = 0.05;
    f.transient_link_rate = 0.20;
    f.transient_duration_cycles = 400;
    f.flit_drop_probability = 0.01;
  } else if (feature == Feature::kTrace) {
    config.trace.enabled = true;
    config.trace.ring_capacity = 1u << 16;
  } else if (feature == Feature::kMonitor) {
    config.monitor.enabled = true;
    config.monitor.hot_occupancy = 0.25;
  }
  return config;
}

void BM_NocFeatureOverhead(benchmark::State& state, Feature feature) {
  static const noc::Topology topology = noc::Topology::mesh(8, 8);
  static const std::vector<noc::SpikePacketEvent> traffic =
      noc::patterns::multicast_traffic(/*seed=*/909, /*tiles=*/64,
                                       /*packets=*/6000, /*max_fanout=*/5,
                                       /*packets_per_cycle=*/4);
  const noc::NocConfig config = feature_config(feature);
  const bool close_windows =
      feature == Feature::kWindows || feature == Feature::kMonitor;
  std::uint64_t cycles = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t recorded = 0;
  std::uint64_t windows = 0;
  for (auto _ : state) {
    noc::NocSimulator sim(topology, config);
    sim.begin();
    sim.enqueue(traffic);
    while (!sim.idle() && !sim.halted()) {
      sim.run_cycles(kFeatureWindow);
      if (close_windows) sim.close_energy_window();
      ++windows;
    }
    const auto result = sim.finish();
    benchmark::DoNotOptimize(result.stats.copies_delivered);
    cycles += result.stats.duration_cycles;
    delivered += result.stats.copies_delivered;
    lost += result.stats.fault.copies_lost();
    reroutes += result.stats.fault.reroutes;
    fault_events += result.stats.fault.link_faults +
                    result.stats.fault.router_faults +
                    result.stats.fault.tile_faults;
    recorded += result.trace_recorded;
  }
  set_rates(state, traffic.size(), cycles, delivered);
  if (recorded > 0) {
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(recorded), benchmark::Counter::kIsRate);
  }
  state.counters["copies_delivered"] = per_run(delivered);
  state.counters["copies_lost"] = per_run(lost);
  state.counters["reroutes"] = per_run(reroutes);
  state.counters["fault_events"] = per_run(fault_events);
  state.counters["trace_recorded"] = per_run(recorded);
  state.counters["windows"] = per_run(windows);
}
BENCHMARK_CAPTURE(BM_NocFeatureOverhead, none, Feature::kNone);
BENCHMARK_CAPTURE(BM_NocFeatureOverhead, windows, Feature::kWindows);
BENCHMARK_CAPTURE(BM_NocFeatureOverhead, faults, Feature::kFaults);
BENCHMARK_CAPTURE(BM_NocFeatureOverhead, trace, Feature::kTrace);
BENCHMARK_CAPTURE(BM_NocFeatureOverhead, monitor, Feature::kMonitor);

// --- Routing-function lookups ---------------------------------------------
//
// The simulator's route-compute stage resolves each destination's serve
// port through Topology::route_entry, which runs the per-topology routing
// function.  These legs measure one full R x R sweep of it per fabric;
// footprint_bytes records the topology's O(R) routing state.

void BM_RouteLookup(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const noc::Topology topology = kind == 0 ? noc::Topology::mesh(8, 8)
                                 : kind == 1
                                     ? noc::Topology::dragonfly(8, 17, 2)
                                     : noc::Topology::fattree(8);
  const std::uint32_t n = topology.router_count();
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (noc::RouterId r = 0; r < n; ++r) {
      for (noc::RouterId dst = 0; dst < n; ++dst) {
        sum += topology.route_entry(r, dst).port[0];
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n));
  state.counters["footprint_bytes"] =
      static_cast<double>(topology.memory_footprint_bytes());
}
BENCHMARK(BM_RouteLookup)
    ->ArgNames({"fabric"})  // 0=mesh8x8 1=dragonfly8x17x2 2=fattree8
    ->DenseRange(0, 2);

// --- Large-fabric construction --------------------------------------------
//
// Building a >= 4096-router fabric must stay O(R): no R x D route table, no
// R x R distance matrix.  bytes_per_router in BENCH_noc.json is the
// regression tripwire — it must stay flat as the fabrics grow.

void run_construction(benchmark::State& state, noc::Topology (*make)()) {
  std::size_t footprint = 0;
  std::uint32_t routers = 0;
  for (auto _ : state) {
    const noc::Topology t = make();
    benchmark::DoNotOptimize(&t);
    footprint = t.memory_footprint_bytes();
    routers = t.router_count();
  }
  state.counters["routers"] = static_cast<double>(routers);
  state.counters["footprint_bytes"] = static_cast<double>(footprint);
  state.counters["bytes_per_router"] =
      static_cast<double>(footprint) / static_cast<double>(routers);
}

void BM_TopologyConstruct_Dragonfly4112(benchmark::State& state) {
  // a=16, g=257, h=16: 4112 routers, every group reachable in one global hop.
  run_construction(state,
                   +[] { return noc::Topology::dragonfly(16, 257, 16); });
}
BENCHMARK(BM_TopologyConstruct_Dragonfly4112);

void BM_TopologyConstruct_Fattree5120(benchmark::State& state) {
  // k=64: 2048 edge + 2048 aggregation + 1024 core switches.
  run_construction(state, +[] { return noc::Topology::fattree(64); });
}
BENCHMARK(BM_TopologyConstruct_Fattree5120);

}  // namespace
