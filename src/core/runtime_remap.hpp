// Run-time SNN remapping — the paper's stated future work (Sec. VI: "Run-
// time SNN mapping will be addressed in future").
//
// Setting: a deployed SNN's topology is fixed but its traffic shifts between
// workload phases (sensor regime changes, attention, diurnal input shifts).
// A partition tuned offline for one phase degrades in the next.  Migrating a
// neuron at run time is possible but expensive on memristive hardware (its
// synaptic rows must be rewritten on the target crossbar), so the remapper
// works under a *migration budget*: per observed phase it applies at most
// `max_migrations_per_epoch` neuron moves/swaps, chosen greedily by their
// AER-packet improvement on the newly observed traffic, and only while each
// step's relative improvement reaches 0.5% of the current cost (so no
// migration cost is paid for noise).
#pragma once

#include <cstdint>
#include <vector>

#include "core/incremental.hpp"
#include "core/partition.hpp"
#include "hw/architecture.hpp"
#include "snn/graph.hpp"

namespace snnmap::core {

struct RemapConfig {
  /// Hard cap on neuron migrations per observed phase (a swap costs two).
  std::uint32_t max_migrations_per_epoch = 16;
  std::uint64_t seed = 42;
};

struct RemapEpochReport {
  std::uint64_t cost_before = 0;   ///< AER packets under the new phase, old map
  std::uint64_t cost_after = 0;    ///< after this epoch's migrations
  std::uint32_t migrations = 0;    ///< neurons moved (swap = 2)
  bool budget_exhausted = false;

  double improvement_fraction() const noexcept {
    return cost_before == 0
               ? 0.0
               : 1.0 - static_cast<double>(cost_after) /
                           static_cast<double>(cost_before);
  }
};

/// Result of evacuating the neurons of failed crossbars (fault path).
struct EvacuationReport {
  std::uint32_t evacuated = 0;  ///< neurons migrated off dead crossbars
  std::uint32_t stranded = 0;   ///< neurons with no live crossbar capacity
  std::uint64_t cost_before = 0;  ///< AER packets before evacuation
  std::uint64_t cost_after = 0;   ///< after (includes knock-on traffic shift)

  bool complete() const noexcept { return stranded == 0; }
};

/// Stateful remapper: owns the current partition across phases.
class RuntimeRemapper {
 public:
  /// Starts from an offline partition (validated against `arch`).
  RuntimeRemapper(hw::Architecture arch, Partition initial,
                  RemapConfig config);

  /// Observes the traffic of a new phase (same neuron count/topology family;
  /// only spike annotations matter) and migrates within budget.  Crossbars
  /// previously declared dead via evacuate() are never chosen as targets.
  RemapEpochReport observe_phase(const snn::SnnGraph& phase_graph);

  /// Declares `dead` crossbars permanently failed and migrates every neuron
  /// currently mapped onto one of them to the live crossbar (with spare
  /// capacity) that minimizes the AER-packet cost of `traffic_graph`.
  /// Evacuation is *forced*: unlike observe_phase it ignores the migration
  /// budget and the minimum relative gain (a neuron on a dead crossbar is
  /// silent hardware; any live home beats none).  Neurons that fit nowhere
  /// are reported stranded and keep their (dead) assignment so the
  /// partition stays structurally valid; callers account their spikes as
  /// lost.
  /// Dead crossbars accumulate across calls.
  EvacuationReport evacuate(const std::vector<CrossbarId>& dead,
                            const snn::SnnGraph& traffic_graph);

  const Partition& partition() const noexcept { return partition_; }
  std::uint64_t total_migrations() const noexcept { return total_migrations_; }
  std::uint32_t epochs_observed() const noexcept { return epochs_; }
  /// True iff crossbar `k` has been declared dead by a prior evacuate().
  bool crossbar_dead(CrossbarId k) const noexcept {
    return k < dead_.size() && dead_[k] != 0;
  }

 private:
  hw::Architecture arch_;
  Partition partition_;
  RemapConfig config_;
  util::Rng rng_;
  std::uint64_t total_migrations_ = 0;
  std::uint32_t epochs_ = 0;
  std::vector<char> dead_;  ///< per-crossbar dead flag (empty = none dead)
};

}  // namespace snnmap::core
