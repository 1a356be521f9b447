#include "core/pso.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/neutrams.hpp"
#include "core/pacman.hpp"
#include "snn/graph.hpp"

namespace snnmap::core {
namespace {

/// Two 6-neuron cliques joined by a single bridge edge.  The optimal 2-way
/// partition (capacity 6) puts each clique on its own crossbar, cutting only
/// the bridge.
snn::SnnGraph two_cliques() {
  std::vector<snn::GraphEdge> edges;
  const auto clique = [&edges](std::uint32_t base) {
    for (std::uint32_t a = 0; a < 6; ++a) {
      for (std::uint32_t b = 0; b < 6; ++b) {
        if (a != b) edges.push_back({base + a, base + b, 1.0F});
      }
    }
  };
  clique(0);
  clique(6);
  edges.push_back({0, 6, 1.0F});  // bridge
  std::vector<snn::SpikeTrain> trains(12, snn::SpikeTrain{1.0, 2.0, 3.0});
  return snn::SnnGraph::from_parts(12, std::move(edges), std::move(trains),
                                   10.0);
}

/// The cliques interleaved in declaration order (worst case for PACMAN):
/// even ids belong to clique A, odd ids to clique B.
snn::SnnGraph interleaved_cliques() {
  std::vector<snn::GraphEdge> edges;
  for (std::uint32_t a = 0; a < 12; a += 2) {
    for (std::uint32_t b = 0; b < 12; b += 2) {
      if (a != b) edges.push_back({a, b, 1.0F});
    }
  }
  for (std::uint32_t a = 1; a < 12; a += 2) {
    for (std::uint32_t b = 1; b < 12; b += 2) {
      if (a != b) edges.push_back({a, b, 1.0F});
    }
  }
  std::vector<snn::SpikeTrain> trains(12, snn::SpikeTrain{1.0, 2.0, 3.0});
  return snn::SnnGraph::from_parts(12, std::move(edges), std::move(trains),
                                   10.0);
}

hw::Architecture arch_2x6() {
  hw::Architecture arch;
  arch.crossbar_count = 2;
  arch.neurons_per_crossbar = 6;
  return arch;
}

TEST(Pso, FindsTheObviousCut) {
  const auto g = two_cliques();
  PsoConfig config;
  config.swarm_size = 40;
  config.iterations = 60;
  config.seed = 1;
  PsoPartitioner pso(g, arch_2x6(), config);
  const auto result = pso.optimize();
  // Optimal cut = the bridge only = 3 spikes (neuron 0 fires 3 times).
  EXPECT_EQ(result.best_cost, 3u);
  result.best.validate(arch_2x6());
}

TEST(Pso, BeatsPacmanOnInterleavedLayout) {
  const auto g = interleaved_cliques();
  const CostModel cost(g);
  const auto pacman_cost =
      cost.multicast_packet_count(pacman_partition(g, arch_2x6()));
  PsoConfig config;
  config.swarm_size = 40;
  config.iterations = 60;
  config.seed = 2;
  config.seed_with_baselines = false;  // make it earn the win
  PsoPartitioner pso(g, arch_2x6(), config);
  const auto result = pso.optimize();
  EXPECT_LT(result.best_cost, pacman_cost);
  EXPECT_EQ(result.best_cost, 0u);  // cliques are separable
}

TEST(Pso, SeedingGuaranteesNoWorseThanBaselines) {
  const auto g = two_cliques();
  const CostModel cost(g);
  const auto arch = arch_2x6();
  const auto pacman_cost =
      cost.multicast_packet_count(pacman_partition(g, arch));
  const auto neutrams_cost =
      cost.multicast_packet_count(neutrams_partition(g, arch));
  PsoConfig config;
  config.swarm_size = 5;
  config.iterations = 2;  // almost no optimization: seeding must carry it
  config.seed_with_baselines = true;
  PsoPartitioner pso(g, arch, config);
  const auto result = pso.optimize();
  EXPECT_LE(result.best_cost, std::min(pacman_cost, neutrams_cost));
}

TEST(Pso, ResultSatisfiesConstraints) {
  const auto g = interleaved_cliques();
  hw::Architecture arch;
  arch.crossbar_count = 4;
  arch.neurons_per_crossbar = 4;  // tight capacity forces repair activity
  PsoConfig config;
  config.swarm_size = 20;
  config.iterations = 20;
  PsoPartitioner pso(g, arch, config);
  const auto result = pso.optimize();
  EXPECT_NO_THROW(result.best.validate(arch));
}

TEST(Pso, DeterministicForSameSeed) {
  const auto g = interleaved_cliques();
  PsoConfig config;
  config.swarm_size = 15;
  config.iterations = 15;
  config.seed = 77;
  const auto a = PsoPartitioner(g, arch_2x6(), config).optimize();
  const auto b = PsoPartitioner(g, arch_2x6(), config).optimize();
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best, b.best);
}

TEST(Pso, HistoryIsMonotoneNonIncreasing) {
  const auto g = interleaved_cliques();
  PsoConfig config;
  config.swarm_size = 20;
  config.iterations = 30;
  config.track_history = true;
  PsoPartitioner pso(g, arch_2x6(), config);
  const auto result = pso.optimize();
  ASSERT_EQ(result.history.size(), 30u);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1]);
  }
  EXPECT_EQ(result.history.back(), result.best_cost);
}

TEST(Pso, LargerSwarmsDoNoWorse) {
  // The Fig. 7 premise: more particles -> better (or equal) optimum at a
  // fixed iteration budget.
  const auto g = interleaved_cliques();
  PsoConfig small;
  small.swarm_size = 4;
  small.iterations = 15;
  small.seed = 5;
  small.seed_with_baselines = false;
  PsoConfig large = small;
  large.swarm_size = 64;
  const auto small_cost =
      PsoPartitioner(g, arch_2x6(), small).optimize().best_cost;
  const auto large_cost =
      PsoPartitioner(g, arch_2x6(), large).optimize().best_cost;
  EXPECT_LE(large_cost, small_cost);
}

TEST(Pso, PatienceStopsEarly) {
  const auto g = two_cliques();
  PsoConfig config;
  config.swarm_size = 30;
  config.iterations = 200;
  config.patience = 5;
  PsoPartitioner pso(g, arch_2x6(), config);
  const auto result = pso.optimize();
  EXPECT_LT(result.iterations_run, 200u);
  EXPECT_EQ(result.best_cost, 3u);  // still finds the optimum
}

TEST(Pso, RejectsOversizedNetworks) {
  const auto g = two_cliques();
  hw::Architecture arch;
  arch.crossbar_count = 2;
  arch.neurons_per_crossbar = 4;  // capacity 8 < 12 neurons
  EXPECT_THROW(PsoPartitioner(g, arch, {}), std::invalid_argument);
}

TEST(Pso, RejectsEmptySwarm) {
  const auto g = two_cliques();
  PsoConfig config;
  config.swarm_size = 0;
  EXPECT_THROW(PsoPartitioner(g, arch_2x6(), config), std::invalid_argument);
}

TEST(Pso, RejectsZeroIterations) {
  const auto g = two_cliques();
  PsoConfig config;
  config.iterations = 0;  // would leave the swarm best empty
  EXPECT_THROW(PsoPartitioner(g, arch_2x6(), config), std::invalid_argument);
}

/// Edge shapes the swarm step must survive: whatever the shape, PSO returns
/// a valid partition of cost 0 after exactly swarm * iterations fitness
/// evaluations.
void expect_valid_zero_cost(const snn::SnnGraph& g,
                            const hw::Architecture& arch) {
  PsoConfig config;
  config.swarm_size = 12;
  config.iterations = 10;
  config.seed = 5;
  config.threads = 2;
  const auto result = PsoPartitioner(g, arch, config).optimize();
  EXPECT_NO_THROW(result.best.validate(arch));
  EXPECT_EQ(result.best.neuron_count(), g.neuron_count());
  EXPECT_EQ(result.best_cost, 0u);
  EXPECT_EQ(result.fitness_evaluations, 120u);
}

TEST(Pso, EdgeShapeOneCrossbar) {
  hw::Architecture arch;
  arch.crossbar_count = 1;
  arch.neurons_per_crossbar = 16;
  expect_valid_zero_cost(two_cliques(), arch);
}

TEST(Pso, EdgeShapeEmptyNetwork) {
  expect_valid_zero_cost(snn::SnnGraph::from_parts(0, {}, {}, 10.0),
                         arch_2x6());
}

TEST(Pso, EdgeShapeAllSilentNetwork) {
  std::vector<snn::GraphEdge> edges;
  for (std::uint32_t a = 0; a < 10; ++a) edges.push_back({a, 9 - a, 1.0F});
  expect_valid_zero_cost(
      snn::SnnGraph::from_parts(10, std::move(edges),
                                std::vector<snn::SpikeTrain>(10), 10.0),
      arch_2x6());
}

TEST(Pso, EdgeShapeExactCapacity) {
  // 12 neurons on 2 x 6 slots: every repair must fill both crossbars.
  expect_valid_zero_cost(interleaved_cliques(), arch_2x6());
}

TEST(Pso, CountsFitnessEvaluations) {
  const auto g = two_cliques();
  PsoConfig config;
  config.swarm_size = 10;
  config.iterations = 7;
  PsoPartitioner pso(g, arch_2x6(), config);
  const auto result = pso.optimize();
  EXPECT_EQ(result.fitness_evaluations, 70u);
}

}  // namespace
}  // namespace snnmap::core
