// BM_SnnSimulator: Google-benchmark suite for the SNN simulator hot path.
//
// Run it directly (`--benchmark_filter=<leg>`) for rates; the CTest case
// bench.counters runs it once and holds its work counters to BENCH_snn.json.
// The headline numbers are simulated ms/sec (sim_ms_per_sec counter) and
// neuron updates/sec (items/sec), next to the deterministic spike count per
// run (spikes counter, which scripts/bench_gate.py holds exactly) on:
//
//  * the paper's synthetic stimulus shape — 10 Poisson sources with mean
//    rates spread over 10..100 Hz — driving two fully connected Izhikevich
//    layers (the acceptance scenario for the SoA engine),
//  * a 3-layer LIF feedforward stack (the synthetic workload family),
//  * STDP training on plastic afferents (Diehl & Cook shape),
//  * exponential synapses (temporal summation path),
//  * a multi-seed sweep fanned out with util::ThreadPool::map.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace snnmap;

/// 10 Poisson sources (rates 10..100 Hz, Sec. V of the paper) fully
/// connected into two 512-neuron Izhikevich layers: spike delivery through
/// the 512 x 512 inner projection dominates, exactly the path the SoA CSR
/// rewrite targets.
snn::Network izh_poisson_network() {
  snn::Network net;
  util::Rng rng(101);
  const auto in = net.add_poisson_group("in", 10, 0.0);
  net.set_rate_function(in, [](std::uint32_t local, double) {
    return 10.0 + 10.0 * static_cast<double>(local);
  });
  const auto l0 = net.add_izhikevich_group(
      "l0", 512, snn::IzhikevichParams::regular_spiking());
  const auto l1 = net.add_izhikevich_group(
      "l1", 512, snn::IzhikevichParams::regular_spiking());
  net.connect_full(in, l0, snn::WeightSpec::uniform(26.0, 34.0), rng);
  net.connect_full(l0, l1, snn::WeightSpec::uniform(1.5, 2.5), rng);
  return net;
}

/// The synthetic workload family: 10 ramped Poisson sources into three
/// fully connected 400-neuron LIF layers, weights scaled by 1/fan-in.
snn::Network lif_feedforward_network() {
  snn::Network net;
  util::Rng rng(202);
  const auto in = net.add_poisson_group("in", 10, 0.0);
  net.set_rate_function(in, [](std::uint32_t local, double) {
    return 10.0 + 10.0 * static_cast<double>(local);
  });
  snn::LifParams lif;
  lif.tau_m_ms = 16.0;
  const auto l0 = net.add_lif_group("l0", 400, lif);
  const auto l1 = net.add_lif_group("l1", 400, lif);
  const auto l2 = net.add_lif_group("l2", 400, lif);
  net.connect_full(in, l0, snn::WeightSpec::uniform(10.0, 15.0), rng);
  net.connect_full(l0, l1, snn::WeightSpec::uniform(90.0 / 400.0, 140.0 / 400.0),
                   rng);
  net.connect_full(l1, l2, snn::WeightSpec::uniform(90.0 / 400.0, 140.0 / 400.0),
                   rng);
  return net;
}

/// Diehl & Cook-style STDP training workload: plastic Poisson afferents
/// onto excitatory Izhikevich neurons with paired lateral inhibition.
snn::Network stdp_network() {
  snn::Network net;
  util::Rng rng(303);
  const auto in = net.add_poisson_group("in", 64, 30.0);
  const auto exc = net.add_izhikevich_group(
      "exc", 100, snn::IzhikevichParams::regular_spiking());
  const auto inh = net.add_izhikevich_group(
      "inh", 100, snn::IzhikevichParams::fast_spiking());
  net.connect_random(in, exc, 0.5, snn::WeightSpec::uniform(1.0, 4.0), rng,
                     /*delay=*/1, /*plastic=*/true);
  net.connect_one_to_one(exc, inh, snn::WeightSpec::fixed(16.0), rng);
  net.connect_random(inh, exc, 0.9, snn::WeightSpec::fixed(-3.0), rng);
  return net;
}

/// Simulated ms/sec and spikes/sec, plus the spike count per run.
void set_counters(benchmark::State& state, std::uint64_t spikes,
                  double simulated_ms) {
  state.counters["sim_ms_per_sec"] =
      benchmark::Counter(simulated_ms, benchmark::Counter::kIsRate);
  state.counters["spikes_per_sec"] = benchmark::Counter(
      static_cast<double>(spikes), benchmark::Counter::kIsRate);
  state.counters["spikes"] = benchmark::Counter(
      static_cast<double>(spikes), benchmark::Counter::kAvgIterations);
}

void run_simulation(benchmark::State& state, snn::Network& net,
                    const snn::SimulationConfig& config) {
  std::uint64_t spikes = 0;
  double simulated_ms = 0.0;
  for (auto _ : state) {
    snn::Simulator sim(net, config);
    const auto result = sim.run();
    benchmark::DoNotOptimize(result.total_spikes);
    spikes += result.total_spikes;
    simulated_ms += result.duration_ms;
  }
  const auto updates = static_cast<std::int64_t>(
      static_cast<double>(net.neuron_count()) *
      (config.duration_ms / config.dt_ms));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          updates);
  set_counters(state, spikes, simulated_ms);
}

void BM_SnnSimulator_IzhPoisson(benchmark::State& state) {
  static snn::Network net = izh_poisson_network();
  snn::SimulationConfig config;
  config.duration_ms = 200.0;
  config.seed = 7;
  run_simulation(state, net, config);
}
BENCHMARK(BM_SnnSimulator_IzhPoisson);

void BM_SnnSimulator_LifFeedforward(benchmark::State& state) {
  static snn::Network net = lif_feedforward_network();
  snn::SimulationConfig config;
  config.duration_ms = 200.0;
  config.seed = 7;
  run_simulation(state, net, config);
}
BENCHMARK(BM_SnnSimulator_LifFeedforward);

void BM_SnnSimulator_StdpTraining(benchmark::State& state) {
  // STDP mutates weights in place, so every iteration rebuilds the network
  // (build cost is excluded from the delivery-path comparison by the other
  // entries; this one tracks the end-to-end training loop).
  snn::SimulationConfig config;
  config.duration_ms = 200.0;
  config.seed = 7;
  config.enable_stdp = true;
  config.stdp.w_max = 8.0;
  std::uint64_t spikes = 0;
  double simulated_ms = 0.0;
  for (auto _ : state) {
    snn::Network net = stdp_network();
    snn::Simulator sim(net, config);
    const auto result = sim.run();
    benchmark::DoNotOptimize(result.total_spikes);
    spikes += result.total_spikes;
    simulated_ms += result.duration_ms;
  }
  set_counters(state, spikes, simulated_ms);
}
BENCHMARK(BM_SnnSimulator_StdpTraining);

void BM_SnnSimulator_ExponentialSynapses(benchmark::State& state) {
  static snn::Network net = lif_feedforward_network();
  snn::SimulationConfig config;
  config.duration_ms = 200.0;
  config.seed = 7;
  config.syn_tau_ms = 5.0;
  run_simulation(state, net, config);
}
BENCHMARK(BM_SnnSimulator_ExponentialSynapses);

void BM_BatchSnnEvaluator_MultiSeed(benchmark::State& state) {
  // 8-seed sweep of the acceptance scenario fanned across the pool: the
  // cheap multi-run evaluation that replaces single-seed point estimates.
  // The argument is the pool's thread count (0 = hardware concurrency); the
  // name predates util::ThreadPool::map and is kept so the leg keeps its
  // BENCH_snn.json record.
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  util::ThreadPool pool(static_cast<std::uint32_t>(state.range(0)));
  std::uint64_t spikes = 0;
  double simulated_ms = 0.0;
  for (auto _ : state) {
    const auto results = pool.map(seeds.size(), [&seeds](std::size_t i) {
      snn::Network net = izh_poisson_network();
      snn::SimulationConfig config;
      config.duration_ms = 200.0;
      config.seed = seeds[i];
      return snn::Simulator(net, config).run();
    });
    for (const auto& r : results) {
      spikes += r.total_spikes;
      simulated_ms += r.duration_ms;
    }
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(seeds.size()));
  set_counters(state, spikes, simulated_ms);
}
BENCHMARK(BM_BatchSnnEvaluator_MultiSeed)->Arg(1)->Arg(0);

}  // namespace
