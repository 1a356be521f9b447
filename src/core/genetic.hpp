// Genetic-algorithm partitioner (ablation comparator; see annealing.hpp for
// why these exist).  Chromosome = assignment vector; the PACMAN and NEUTRAMS
// solutions seed the initial population; tournament selection, uniform
// crossover, random-reassignment mutation, capacity repair after every
// variation, elitism of 1.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost.hpp"
#include "core/partition.hpp"
#include "hw/architecture.hpp"
#include "snn/graph.hpp"

namespace snnmap::core {

struct GeneticConfig {
  std::uint32_t population = 100;
  std::uint32_t generations = 100;
  Objective objective = Objective::kAerPackets;
  std::uint64_t seed = 42;
  /// Worker threads for batch fitness evaluation: 0 = one per hardware
  /// thread, 1 = serial.  Results are identical for every value.
  std::uint32_t threads = 0;
  bool track_history = false;
};

struct GeneticResult {
  Partition best;
  std::uint64_t best_cost = 0;
  std::uint32_t generations_run = 0;
  std::uint64_t fitness_evaluations = 0;
  std::vector<std::uint64_t> history;
};

GeneticResult genetic_partition(const snn::SnnGraph& graph,
                                const hw::Architecture& arch,
                                const GeneticConfig& config);

}  // namespace snnmap::core
