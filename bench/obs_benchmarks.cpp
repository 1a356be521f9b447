// BM_TraceOverhead: observability cost in the NoC cycle loop.
//
// Run via scripts/bench.sh, which writes BENCH_obs.json so the cost of the
// obs subsystem is tracked PR over PR.  Every leg replays the *same*
// deterministic mesh multicast trace; only the obs configuration differs:
//
//  * mode=0 — everything off.  Every trace call site is gated on the
//    hoisted trace_active_ bool and the monitor on a has_value() check, so
//    this leg must stay within noise of the pre-obs BM_NocSimulator
//    trajectory: the dark hot path pays nothing for the subsystem's
//    existence.
//  * mode=1 — tracing on (64Ki ring): every inject/hop/park/deliver pays a
//    record() — three FNV-1a mixes plus a ring push.  events_per_sec makes
//    the tracer's own throughput visible next to the cycle loop's.
//  * mode=2 — tracing + congestion monitor (per-link EWMA fed at each
//    window close): the full observability stack as snnmap_cli --trace
//    --monitor runs it.
//
// trace_recorded per iteration is exported so a throughput change can be
// told apart from a workload/event-count change.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "noc/simulator.hpp"
#include "noc/traffic_patterns.hpp"
#include "obs/trace.hpp"

namespace {

using namespace snnmap;

/// Same 8x8 XY mesh multicast workload as fault_benchmarks, so the mode=0
/// leg is directly comparable against the BM_FaultedNoc severity=0 leg.
struct ObsWorkload {
  noc::Topology topology = noc::Topology::mesh(8, 8);
  noc::NocConfig config;
  std::vector<noc::SpikePacketEvent> traffic =
      noc::patterns::multicast_traffic(/*seed=*/909, /*tiles=*/64,
                                       /*packets=*/6000, /*max_fanout=*/5,
                                       /*packets_per_cycle=*/4);
};

noc::NocConfig obs_mode(noc::NocConfig config, int mode) {
  if (mode >= 1) {
    config.trace.enabled = true;
    config.trace.ring_capacity = 1u << 16;
  }
  if (mode >= 2) {
    config.monitor.enabled = true;
    config.monitor.hot_occupancy = 0.25;
  }
  return config;
}

void BM_TraceOverhead(benchmark::State& state) {
  static const ObsWorkload base;
  ObsWorkload workload;
  workload.config = obs_mode(base.config, static_cast<int>(state.range(0)));
  std::uint64_t cycles = 0;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    noc::NocSimulator sim(base.topology, workload.config);
    const auto result = sim.run(base.traffic);
    benchmark::DoNotOptimize(result.stats.copies_delivered);
    cycles += result.stats.duration_cycles;
    delivered += result.stats.copies_delivered;
    events += result.trace_recorded;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.traffic.size()));
  state.counters["cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["delivered_per_sec"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kIsRate);
  if (events > 0) {
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
  }
  state.counters["trace_recorded"] =
      static_cast<double>(events) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_TraceOverhead)
    ->ArgName("mode")  // 0=dark baseline 1=trace 2=trace+monitor
    ->DenseRange(0, 2);

// The tracer in isolation: record() is three FNV-1a mixes and a ring push,
// and its throughput bounds how much instrumentation the cycle loop can
// afford.  Kept separate from the workload legs so a regression here is
// attributable to the tracer itself, not the simulator.
void BM_TracerRecord(benchmark::State& state) {
  obs::TraceConfig config;
  config.enabled = true;
  config.ring_capacity = static_cast<std::uint32_t>(state.range(0));
  obs::Tracer tracer;
  tracer.configure(config);
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    tracer.record(cycle, obs::TraceEventType::kFlitHop,
                  static_cast<std::uint32_t>(cycle & 63),
                  static_cast<std::uint32_t>(cycle & 3),
                  static_cast<std::uint32_t>(cycle));
    ++cycle;
  }
  benchmark::DoNotOptimize(tracer.digest());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TracerRecord)->ArgName("ring")->Arg(64)->Arg(1 << 16);

}  // namespace
