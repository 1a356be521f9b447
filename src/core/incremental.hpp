// Incremental evaluator for the AER-packet objective.
//
// The AER-packet cost (one packet per spike per distinct remote destination
// crossbar; see Objective::kAerPackets) is expensive to recompute from
// scratch per candidate move.  This evaluator maintains, for every neuron u,
// the count of u's distinct targets on each crossbar, so that moving one
// neuron n from crossbar a to b costs O(in-degree(n)) to evaluate and apply:
//   * n's own packet term changes only through which crossbar is "local";
//   * an in-neighbor u gains remote crossbar b iff n is u's first target
//     there, and loses a iff n was u's last target there.
// Used by the PSO's memetic refinement sweeps, the annealing partitioner
// (which optimizes the packet objective directly) and the runtime remapper.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partition.hpp"
#include "snn/graph.hpp"
#include "util/rng.hpp"

namespace snnmap::core {

class IncrementalAerCost {
 public:
  /// `assignment` must be complete (no kUnassigned).
  IncrementalAerCost(const snn::SnnGraph& graph,
                     std::vector<CrossbarId> assignment,
                     std::uint32_t crossbar_count);

  std::uint64_t cost() const noexcept { return cost_; }
  const std::vector<CrossbarId>& assignment() const noexcept {
    return assignment_;
  }
  CrossbarId crossbar_of(std::uint32_t neuron) const {
    return assignment_.at(neuron);
  }
  const std::vector<std::uint32_t>& occupancy() const noexcept {
    return occupancy_;
  }

  /// Cost change if `neuron` moved to `to`; 0 when to == current.
  std::int64_t move_delta(std::uint32_t neuron, CrossbarId to) const;

  /// Applies the move and updates all bookkeeping.
  void apply_move(std::uint32_t neuron, CrossbarId to);

  /// Greedy improvement: sweeps all neurons in index order, applying the
  /// best capacity-feasible move per neuron if it strictly improves, until
  /// a sweep makes no change or `max_sweeps` is reached.  Returns the number
  /// of moves applied.
  std::uint64_t greedy_refine(std::uint32_t capacity,
                              std::uint32_t max_sweeps = 4);

  /// Stochastic swap hill-climbing: `attempts` random neuron pairs on
  /// different crossbars are trial-swapped and kept only if the combined
  /// delta strictly improves.  Swaps preserve occupancy, so they escape the
  /// capacity-blocked local optima that defeat single-neuron moves (e.g. a
  /// contiguous-fill start leaves all slack in the last crossbar).  Returns
  /// the number of swaps kept.
  std::uint64_t swap_refine(std::uint64_t attempts, util::Rng& rng);

 private:
  /// Distinct remote destination crossbars of `neuron` under `own`.
  std::uint32_t remotes_with_own(std::uint32_t neuron,
                                 CrossbarId own) const noexcept;

  const snn::SnnGraph& graph_;
  std::vector<CrossbarId> assignment_;
  std::uint32_t crossbar_count_;
  // target_count_[n * C + c] = number of n's distinct targets on crossbar c.
  std::vector<std::uint32_t> target_count_;
  // In-adjacency over distinct (pre -> post) pairs, CSR keyed by post.
  std::vector<std::uint32_t> in_offsets_;
  std::vector<std::uint32_t> in_sources_;
  std::vector<std::uint32_t> remotes_;   // per neuron
  std::vector<std::uint32_t> occupancy_; // per crossbar
  std::uint64_t cost_ = 0;
};

}  // namespace snnmap::core
