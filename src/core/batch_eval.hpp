// Parallel batch evaluation of the optimizers' fitness objective.
//
// Every PSO iteration / GA generation evaluates the Eq. 7/8 objective for an
// entire swarm or population against the same immutable spike graph.  The
// evaluations are independent, so they fan out over a ThreadPool.  CostModel
// carries mutable stamp-marking scratch per instance, so the evaluator owns
// one CostModel per worker — each touched by exactly one thread per batch —
// and all randomness stays on the caller's thread.  Costs land in a slot
// indexed by candidate, making parallel results bit-identical to the serial
// path under a fixed seed.
//
// Independent whole-simulation runs (NoC, SNN or co-sim scenario sweeps)
// need no per-worker scratch, so they use util::ThreadPool::map directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/cost.hpp"
#include "core/partition.hpp"
#include "snn/graph.hpp"
#include "util/thread_pool.hpp"

namespace snnmap::core {

class BatchEvaluator {
 public:
  /// threads = 0 resolves to hardware_concurrency(); 1 evaluates inline on
  /// the calling thread (serial fallback).  `max_parallelism` is the
  /// largest batch the caller will ever submit (e.g. the swarm size):
  /// worker threads and their CostModel replicas beyond it would never
  /// receive a block, so the pool is clamped to it.
  explicit BatchEvaluator(const snn::SnnGraph& graph,
                          std::uint32_t threads = 0,
                          std::size_t max_parallelism = ~std::size_t{0});

  std::uint32_t thread_count() const noexcept { return pool_.size(); }

  /// Worker-local cost model.  Worker 0's model doubles as the caller's
  /// serial model (repair operators, one-off evaluations): batches never run
  /// while the caller is between evaluate() calls, so no thread contends.
  const CostModel& model(std::uint32_t worker = 0) const {
    return *models_[worker];
  }

  using AssignmentAt =
      std::function<const std::vector<CrossbarId>&(std::size_t)>;

  /// Evaluates `count` candidates into `costs` (resized to `count`):
  /// costs[i] = objective_cost(at(i), objective).  `at` is called from
  /// worker threads and must be safe to invoke concurrently for distinct
  /// indices (a pure indexed view into caller-owned storage).
  void evaluate(std::size_t count, const AssignmentAt& at,
                Objective objective, std::vector<std::uint64_t>& costs);

  /// Convenience over a contiguous population of assignment vectors.
  void evaluate(const std::vector<std::vector<CrossbarId>>& population,
                Objective objective, std::vector<std::uint64_t>& costs);

 private:
  util::ThreadPool pool_;
  std::vector<std::unique_ptr<CostModel>> models_;  ///< one per worker
};

}  // namespace snnmap::core
