// Simulated-annealing partitioner (ablation comparator).
//
// Sec. III motivates PSO as "computationally less expensive with faster
// convergence compared to its counterparts such as genetic algorithm (GA) or
// simulated annealing (SA)".  This SA implementation backs that claim
// empirically in bench/ablation_optimizers: single-neuron moves and
// neuron-pair swaps evaluated incrementally via CostModel::move_delta under
// a geometric cooling schedule.
//
// Both objectives are supported with incremental move deltas: kCutSpikes
// via CostModel::move_delta, kAerPackets via IncrementalAerCost.
//
// A chain is inherently sequential (every move depends on the last), so the
// parallel axis is restarts: `restarts` independent chains with seeds derived
// deterministically from the base seed run concurrently on a ThreadPool and
// the best final cost wins (ties -> lowest chain index).  Chain results are
// a pure function of the chain seed, so the outcome is identical at any
// thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost.hpp"
#include "core/partition.hpp"
#include "hw/architecture.hpp"
#include "snn/graph.hpp"

namespace snnmap::core {

struct AnnealingConfig {
  std::uint64_t moves = 200'000;    ///< proposed moves
  double initial_temp = 0.0;        ///< 0 = auto-calibrate from move deltas
  Objective objective = Objective::kAerPackets;
  std::uint64_t seed = 42;
  /// Independent restart chains; chain 0 reuses `seed` verbatim, so
  /// restarts=1 reproduces the single-chain result exactly.
  std::uint32_t restarts = 1;
  /// Worker threads for concurrent chains: 0 = one per hardware thread,
  /// 1 = serial.  Results are identical for every value.
  std::uint32_t threads = 0;
  bool track_history = false;       ///< record best cost every `moves`/100
};

struct AnnealingResult {
  Partition best;
  std::uint64_t best_cost = 0;
  std::uint64_t moves_accepted = 0;   ///< summed over all chains
  std::uint64_t moves_proposed = 0;   ///< summed over all chains
  std::uint32_t best_chain = 0;       ///< restart chain that produced `best`
  std::vector<std::uint64_t> history; ///< from the winning chain
};

/// Starts from the PACMAN solution and anneals; always returns a feasible
/// partition at least as good as the start.
AnnealingResult annealing_partition(const snn::SnnGraph& graph,
                                    const hw::Architecture& arch,
                                    const AnnealingConfig& config);

}  // namespace snnmap::core
