// Parallel batch evaluation of the optimizers' fitness objective.
//
// Every PSO iteration / GA generation evaluates the Eq. 7/8 objective for an
// entire swarm or population against the same immutable spike graph.  The
// evaluations are independent, so they fan out over a ThreadPool.  CostModel
// carries mutable stamp-marking scratch per instance, so the evaluator owns
// one CostModel per worker — each touched by exactly one thread per batch.
// for_each() hands every candidate index its worker's model; a task whose
// work is stochastic (a PSO particle step) seeds its own util::Rng from its
// index, never from shared state, and writes only its own slot, so parallel
// results are bit-identical to the serial path under a fixed seed.
//
// Independent whole-simulation runs (NoC, SNN or co-sim scenario sweeps)
// need no per-worker scratch, so they use util::ThreadPool::map directly.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
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
  /// serial model (one-off evaluations): batches never run while the caller
  /// is between fan-outs, so no thread contends.
  const CostModel& model(std::uint32_t worker = 0) const {
    return *models_[worker];
  }

  /// Per-candidate fan-out: fn(worker, i) for every i in [0, count), on the
  /// worker the pool assigns i to (a pure function of count and
  /// thread_count()).  fn uses model(worker) and any per-worker scratch the
  /// caller indexes by `worker`; it must write only state owned by index i.
  template <typename F>
  void for_each(std::size_t count, F&& fn) {
    pool_.parallel_for(count, std::forward<F>(fn));
  }

  /// Evaluates a population into `costs` (resized to its size):
  /// costs[i] = objective_cost(population[i], objective).
  void evaluate(const std::vector<std::vector<CrossbarId>>& population,
                Objective objective, std::vector<std::uint64_t>& costs);

 private:
  util::ThreadPool pool_;
  std::vector<std::unique_ptr<CostModel>> models_;  ///< one per worker
};

}  // namespace snnmap::core
