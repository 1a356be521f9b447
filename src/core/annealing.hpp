// Simulated-annealing partitioner (ablation comparator).
//
// Sec. III motivates PSO as "computationally less expensive with faster
// convergence compared to its counterparts such as genetic algorithm (GA) or
// simulated annealing (SA)".  This SA implementation backs that claim
// empirically in bench/ablation_optimizers: single-neuron moves and
// neuron-pair swaps scored by their AER-packet delta (IncrementalAerCost)
// under a geometric cooling schedule whose initial temperature is
// calibrated from a probe of random move deltas.
//
// One sequential chain (every move depends on the last) runs on the
// caller's thread; its result is a pure function of (graph, arch, config).
#pragma once

#include <cstdint>
#include <vector>

#include "core/partition.hpp"
#include "hw/architecture.hpp"
#include "snn/graph.hpp"

namespace snnmap::core {

struct AnnealingConfig {
  std::uint64_t moves = 200'000;    ///< proposed moves
  std::uint64_t seed = 42;
  bool track_history = false;       ///< record best cost every `moves`/100
};

struct AnnealingResult {
  Partition best;
  std::uint64_t best_cost = 0;        ///< AER packets of `best`
  std::uint64_t moves_accepted = 0;
  std::uint64_t moves_proposed = 0;
  std::vector<std::uint64_t> history;
};

/// Starts from the PACMAN solution and anneals; always returns a feasible
/// partition at least as good as the start.
AnnealingResult annealing_partition(const snn::SnnGraph& graph,
                                    const hw::Architecture& arch,
                                    const AnnealingConfig& config);

}  // namespace snnmap::core
