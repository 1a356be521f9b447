#include <gtest/gtest.h>

#include "core/annealing.hpp"
#include "core/cost.hpp"
#include "core/genetic.hpp"
#include "core/pacman.hpp"
#include "snn/graph.hpp"

namespace snnmap::core {
namespace {

/// Interleaved two-clique graph (see pso_test) — optimal cut is 0.
snn::SnnGraph interleaved_cliques() {
  std::vector<snn::GraphEdge> edges;
  for (std::uint32_t parity = 0; parity < 2; ++parity) {
    for (std::uint32_t a = parity; a < 12; a += 2) {
      for (std::uint32_t b = parity; b < 12; b += 2) {
        if (a != b) edges.push_back({a, b, 1.0F});
      }
    }
  }
  std::vector<snn::SpikeTrain> trains(12, snn::SpikeTrain{1.0, 2.0});
  return snn::SnnGraph::from_parts(12, std::move(edges), std::move(trains),
                                   10.0);
}

hw::Architecture arch_2x6() {
  hw::Architecture arch;
  arch.crossbar_count = 2;
  arch.neurons_per_crossbar = 6;
  return arch;
}

TEST(Annealing, ImprovesOnPacmanStart) {
  const auto g = interleaved_cliques();
  const CostModel cost(g);
  const auto start_cost =
      cost.multicast_packet_count(pacman_partition(g, arch_2x6()));
  AnnealingConfig config;
  config.moves = 20000;
  config.seed = 3;
  const auto result = annealing_partition(g, arch_2x6(), config);
  EXPECT_LE(result.best_cost, start_cost);
  EXPECT_EQ(result.best_cost, 0u);  // separable
  EXPECT_NO_THROW(result.best.validate(arch_2x6()));
}

TEST(Annealing, ReportedCostMatchesPartition) {
  const auto g = interleaved_cliques();
  const CostModel cost(g);
  AnnealingConfig config;
  config.moves = 5000;
  const auto result = annealing_partition(g, arch_2x6(), config);
  EXPECT_EQ(cost.multicast_packet_count(result.best), result.best_cost);
}

TEST(Annealing, RespectsCapacityThroughout) {
  const auto g = interleaved_cliques();
  hw::Architecture tight;
  tight.crossbar_count = 3;
  tight.neurons_per_crossbar = 4;
  AnnealingConfig config;
  config.moves = 10000;
  const auto result = annealing_partition(g, tight, config);
  EXPECT_NO_THROW(result.best.validate(tight));
}

TEST(Annealing, DeterministicForSameSeed) {
  const auto g = interleaved_cliques();
  AnnealingConfig config;
  config.moves = 3000;
  config.seed = 11;
  const auto a = annealing_partition(g, arch_2x6(), config);
  const auto b = annealing_partition(g, arch_2x6(), config);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.moves_accepted, b.moves_accepted);
}

TEST(Annealing, TracksHistoryWhenAsked) {
  const auto g = interleaved_cliques();
  AnnealingConfig config;
  config.moves = 2000;
  config.track_history = true;
  const auto result = annealing_partition(g, arch_2x6(), config);
  EXPECT_FALSE(result.history.empty());
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1]);
  }
}

TEST(Genetic, SolvesSeparableGraphOnCutObjective) {
  // The cut objective has a fine-grained gradient (every cross edge counts),
  // which the GA's selection pressure can follow to the separable optimum.
  const auto g = interleaved_cliques();
  GeneticConfig config;
  config.population = 40;
  config.generations = 60;
  config.seed = 7;
  config.objective = Objective::kCutSpikes;
  const auto result = genetic_partition(g, arch_2x6(), config);
  EXPECT_EQ(result.best_cost, 0u);
  EXPECT_NO_THROW(result.best.validate(arch_2x6()));
}

TEST(Genetic, AerObjectiveStaysWithinBaselineBound) {
  // The AER-packet landscape is plateau-heavy (a clique spread over two
  // crossbars costs the same however its members are arranged), so the GA
  // is only required to match its seeds and remain feasible.
  const auto g = interleaved_cliques();
  const CostModel cost(g);
  GeneticConfig config;
  config.population = 40;
  config.generations = 60;
  config.seed = 7;
  const auto result = genetic_partition(g, arch_2x6(), config);
  EXPECT_LE(result.best_cost,
            cost.multicast_packet_count(pacman_partition(g, arch_2x6())));
  EXPECT_NO_THROW(result.best.validate(arch_2x6()));
}

TEST(Genetic, SeedingBoundsCost) {
  const auto g = interleaved_cliques();
  const CostModel cost(g);
  const auto pacman_cost =
      cost.global_spike_count(pacman_partition(g, arch_2x6()));
  GeneticConfig config;
  config.population = 10;
  config.generations = 2;
  const auto result = genetic_partition(g, arch_2x6(), config);
  EXPECT_LE(result.best_cost, pacman_cost);
}

TEST(Genetic, RejectsBadConfig) {
  const auto g = interleaved_cliques();
  GeneticConfig config;
  config.population = 1;
  EXPECT_THROW(genetic_partition(g, arch_2x6(), config),
               std::invalid_argument);
  config.population = 4;
  config.generations = 0;  // would leave the best genome empty
  EXPECT_THROW(genetic_partition(g, arch_2x6(), config),
               std::invalid_argument);
  hw::Architecture tiny;
  tiny.crossbar_count = 1;
  tiny.neurons_per_crossbar = 2;
  EXPECT_THROW(genetic_partition(g, tiny, {}), std::invalid_argument);
}

TEST(Genetic, DeterministicForSameSeed) {
  const auto g = interleaved_cliques();
  GeneticConfig config;
  config.population = 16;
  config.generations = 10;
  config.seed = 21;
  const auto a = genetic_partition(g, arch_2x6(), config);
  const auto b = genetic_partition(g, arch_2x6(), config);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best, b.best);
}

TEST(Genetic, HistoryMonotone) {
  const auto g = interleaved_cliques();
  GeneticConfig config;
  config.population = 16;
  config.generations = 20;
  config.track_history = true;
  const auto result = genetic_partition(g, arch_2x6(), config);
  ASSERT_EQ(result.history.size(), 20u);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1]);
  }
}

}  // namespace
}  // namespace snnmap::core
