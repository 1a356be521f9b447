// Multi-seed spike statistics: why the mapping flow should not trust a
// single-seed point estimate.  The spike counts that annotate the synapse
// graph (Sec. III) come from stochastic Poisson-driven simulations, so this
// example fans the same workload across many seeds with
// util::ThreadPool::map and reports the per-population firing-rate spread
// — cheap uncertainty bands instead of one arbitrary draw.
//
//   ./build/examples/spike_stats_sweep
#include <cstdint>
#include <iostream>
#include <vector>

#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "snn/spike_train.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace snnmap;

/// The hello-world workload shape: rate-coded Poisson grid driving an
/// Izhikevich grid plus a small readout population.
snn::Network workload() {
  snn::Network net;
  util::Rng rng(7);
  const auto input = net.add_poisson_group("input", 117, 20.0);
  net.set_rate_function(input, [](std::uint32_t local, double) {
    return 10.0 + 40.0 * static_cast<double>(local) / 116.0;
  });
  const auto grid = net.add_izhikevich_group(
      "grid", 117, snn::IzhikevichParams::regular_spiking());
  const auto out = net.add_izhikevich_group(
      "out", 9, snn::IzhikevichParams::regular_spiking());
  net.connect_one_to_one(input, grid, snn::WeightSpec::uniform(28.0, 34.0),
                         rng);
  net.connect_full(grid, out, snn::WeightSpec::uniform(1.5, 2.5), rng);
  return net;
}

}  // namespace

int main() {
  using namespace snnmap;

  snn::SimulationConfig config;
  config.duration_ms = 1000.0;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 16; ++s) seeds.push_back(s);

  util::ThreadPool pool;  // threads auto-resolve
  std::cout << "Sweeping " << seeds.size() << " seeds on " << pool.size()
            << " thread(s)...\n\n";
  const auto runs = pool.map(seeds.size(), [&](std::size_t i) {
    snn::Network run_net = workload();
    snn::SimulationConfig run_config = config;
    run_config.seed = seeds[i];
    return snn::Simulator(run_net, run_config).run();
  });

  // Per-population mean rate across seeds.
  const snn::Network net = workload();
  util::Table table({"population", "mean rate (Hz)", "stddev", "min", "max",
                     "seed-1 estimate"});
  for (const snn::Group& group : net.groups()) {
    util::Accumulator rates;
    double first_seed_rate = 0.0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      std::uint64_t spikes = 0;
      for (snn::NeuronId id = group.first; id < group.last(); ++id) {
        spikes += runs[r].spikes[id].size();
      }
      const double rate = static_cast<double>(spikes) /
                          static_cast<double>(group.size) /
                          config.duration_ms * 1000.0;
      if (r == 0) first_seed_rate = rate;
      rates.add(rate);
    }
    table.begin_row();
    table.cell(group.name);
    table.cell(rates.mean(), 3);
    table.cell(rates.stddev(), 3);
    table.cell(rates.min(), 3);
    table.cell(rates.max(), 3);
    table.cell(first_seed_rate, 3);
  }
  std::cout << table.to_ascii();
  std::cout << "\nThe seed-1 column is what a single-seed run would have "
               "reported; the spread\ncolumns are what the batch sweep adds "
               "for the same wall-clock budget on a pool.\n";
  return 0;
}
