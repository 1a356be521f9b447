// BM_CoSimulator: Google-benchmark suite for the closed-loop SNN x NoC
// co-simulation hot path.
//
// Run it directly (`--benchmark_filter=<leg>`) for rates; the CTest case
// bench.counters runs it once and holds its work counters to
// BENCH_cosim.json.  The headline number is lockstep steps/sec
// (steps_per_sec counter); the single-run cases also report per-run handoff
// work (packets_offered, copies_arrived, deadline_misses) as non-rate
// counters.  The cases are:
//
//  * an ideal-budget run (windows drain in-step: measures the lockstep
//    plumbing — deferred stepping, packet encode, window pump, flush),
//  * a congested run (small cycle budget: measures carried backlog, late
//    arrivals and withheld cut deliveries),
//  * a bounded-receive-queue run (drop accounting on top of congestion),
//  * the ideal-budget run under each scaling DVFS policy (the per-window
//    policy step on top of the energy-window close every step pays),
//  * a cycles-per-timestep sweep fanned out with util::ThreadPool::map.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/framework.hpp"
#include "core/pacman.hpp"
#include "core/placement.hpp"
#include "cosim/cosim.hpp"
#include "hw/architecture.hpp"
#include "noc/topology.hpp"
#include "snn/graph.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace snnmap;

struct Mapped {
  apps::SyntheticConfig workload;
  hw::Architecture arch;
  core::Partition partition;
};

/// The 2x200 synthetic workload pacman-mapped onto 8 x 64 crossbars (tree):
/// dense cross-crossbar projections, the traffic shape the co-sim loop has
/// to encode and flush every step.
const Mapped& mapped_workload() {
  static const Mapped kMapped = [] {
    apps::SyntheticConfig workload;
    workload.layers = 2;
    workload.neurons_per_layer = 200;
    workload.seed = 5;
    workload.duration_ms = 200.0;
    const snn::SnnGraph graph = apps::build_synthetic(workload);
    hw::Architecture arch = hw::Architecture::sized_for(
        graph.neuron_count(), 64, hw::InterconnectKind::kTree);
    core::Partition partition = core::pacman_partition(graph, arch);
    return Mapped{workload, arch, std::move(partition)};
  }();
  return kMapped;
}

cosim::CoSimConfig cosim_config(std::uint32_t cycles_per_timestep) {
  const Mapped& m = mapped_workload();
  cosim::CoSimConfig config;
  config.snn = apps::synthetic_sim_config(m.workload);
  config.cycles_per_timestep = cycles_per_timestep;
  return config;
}

void run_cosim(benchmark::State& state, const cosim::CoSimConfig& config) {
  const Mapped& m = mapped_workload();
  std::uint64_t steps = 0;
  double simulated_ms = 0.0;
  std::uint64_t packets_offered = 0;
  std::uint64_t copies_arrived = 0;
  std::uint64_t deadline_misses = 0;
  for (auto _ : state) {
    snn::Network net = apps::build_synthetic_network(m.workload);
    cosim::CoSimulator sim(net, m.partition,
                           core::identity_placement(
                               m.arch.crossbar_count,
                               noc::Topology::for_architecture(m.arch)),
                           noc::Topology::for_architecture(m.arch), config);
    const cosim::CoSimResult result = sim.run();
    benchmark::DoNotOptimize(result.fidelity.copies_accepted);
    steps += result.fidelity.steps;
    simulated_ms += result.snn.duration_ms;
    packets_offered += result.fidelity.packets_offered;
    copies_arrived += result.fidelity.copies_arrived;
    deadline_misses += result.fidelity.deadline_misses;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["steps_per_sec"] =
      benchmark::Counter(static_cast<double>(steps),
                         benchmark::Counter::kIsRate);
  state.counters["sim_ms_per_sec"] =
      benchmark::Counter(simulated_ms, benchmark::Counter::kIsRate);
  // Handoff work per run (deterministic, so a wall-time change can be told
  // apart from a change in how much traffic the loop converts).
  state.counters["packets_offered"] = benchmark::Counter(
      static_cast<double>(packets_offered), benchmark::Counter::kAvgIterations);
  state.counters["copies_arrived"] = benchmark::Counter(
      static_cast<double>(copies_arrived), benchmark::Counter::kAvgIterations);
  state.counters["deadline_misses"] = benchmark::Counter(
      static_cast<double>(deadline_misses), benchmark::Counter::kAvgIterations);
}

void BM_CoSimulator_IdealBudget(benchmark::State& state) {
  run_cosim(state, cosim_config(2048));
}
BENCHMARK(BM_CoSimulator_IdealBudget);

void BM_CoSimulator_Congested(benchmark::State& state) {
  run_cosim(state, cosim_config(24));
}
BENCHMARK(BM_CoSimulator_Congested);

void BM_CoSimulator_BoundedReceiveQueue(benchmark::State& state) {
  cosim::CoSimConfig config = cosim_config(24);
  config.receive_queue_depth = 4;
  run_cosim(state, config);
}
BENCHMARK(BM_CoSimulator_BoundedReceiveQueue);

void BM_CoSimulator_Dvfs(benchmark::State& state,
                        cosim::DvfsPolicyKind policy) {
  cosim::CoSimConfig config = cosim_config(2048);
  config.dvfs.kind = policy;
  run_cosim(state, config);
}
BENCHMARK_CAPTURE(BM_CoSimulator_Dvfs, utilization,
                  cosim::DvfsPolicyKind::kUtilizationThreshold);
BENCHMARK_CAPTURE(BM_CoSimulator_Dvfs, deadline-slack,
                  cosim::DvfsPolicyKind::kDeadlineSlack);

void BM_CoSimulator_BatchCptSweep(benchmark::State& state) {
  const Mapped& m = mapped_workload();
  const std::vector<std::uint32_t> budgets = {2048, 64, 24};
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const noc::Topology topology = noc::Topology::for_architecture(m.arch);
    const core::Placement placement =
        core::identity_placement(m.arch.crossbar_count, topology);
    util::ThreadPool pool;
    const auto results = pool.map(budgets.size(), [&](std::size_t i) {
      snn::Network net = apps::build_synthetic_network(m.workload);
      cosim::CoSimConfig config = cosim_config(2048);
      config.cycles_per_timestep = budgets[i];
      return cosim::CoSimulator(net, m.partition, placement, topology, config)
          .run();
    });
    benchmark::DoNotOptimize(results.size());
    for (const auto& r : results) steps += r.fidelity.steps;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["steps_per_sec"] =
      benchmark::Counter(static_cast<double>(steps),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoSimulator_BatchCptSweep);

}  // namespace
