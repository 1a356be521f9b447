#include "core/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "core/incremental.hpp"
#include "core/pacman.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace snnmap::core {
namespace {

constexpr double kCooling = 0.999;  ///< geometric factor per evaluated move
constexpr double kSwapProbability = 0.3;  ///< swap two neurons vs one move

/// Uniform incremental-evaluation interface over the two objectives.
struct MoveEvaluator {
  std::function<std::int64_t(std::uint32_t, CrossbarId)> delta;
  std::function<void(std::uint32_t, CrossbarId)> apply;
  std::function<CrossbarId(std::uint32_t)> crossbar_of;
};

/// One annealing chain: the classic sequential random walk, a pure function
/// of (graph, arch, config, start, seed) — this is what restarts
/// parallelize over.  `cost` and `start` are shared read-only across chains
/// (the PACMAN solution is a pure function of (graph, arch), so it is
/// computed once).
AnnealingResult anneal_chain(const CostModel& cost,
                             const hw::Architecture& arch,
                             const AnnealingConfig& config,
                             const Partition& start, std::uint64_t seed) {
  const snn::SnnGraph& graph = cost.graph();
  util::Rng rng(seed);

  const std::uint32_t n = graph.neuron_count();
  const std::uint32_t c = arch.crossbar_count;

  AnnealingResult result;
  result.best = start;
  result.best_cost = cost.objective_cost(start.assignment(), config.objective);
  if (n == 0 || c < 2) return result;  // nothing to optimize

  // State: either the cut-tracking Partition or the AER evaluator (only
  // the AER objective reads the latter's N x C target-count table).
  Partition current = start;
  std::uint64_t current_cost = result.best_cost;
  std::vector<std::uint32_t> occ = current.occupancy();
  std::optional<IncrementalAerCost> aer;

  MoveEvaluator eval;
  if (config.objective == Objective::kAerPackets) {
    aer.emplace(graph, start.assignment(), c);
    eval.delta = [&](std::uint32_t neuron, CrossbarId to) {
      return aer->move_delta(neuron, to);
    };
    eval.apply = [&](std::uint32_t neuron, CrossbarId to) {
      aer->apply_move(neuron, to);
    };
    eval.crossbar_of = [&](std::uint32_t neuron) {
      return aer->crossbar_of(neuron);
    };
  } else {
    eval.delta = [&](std::uint32_t neuron, CrossbarId to) {
      return cost.move_delta(current, neuron, to);
    };
    eval.apply = [&](std::uint32_t neuron, CrossbarId to) {
      current.assign(neuron, to);
    };
    eval.crossbar_of = [&](std::uint32_t neuron) {
      return current.crossbar_of(neuron);
    };
  }
  const auto snapshot_best = [&] {
    if (aer) {
      Partition p(n, c);
      for (std::uint32_t i = 0; i < n; ++i) p.assign(i, aer->assignment()[i]);
      result.best = std::move(p);
    } else {
      result.best = current;
    }
  };

  // Auto-calibrate the initial temperature so a median uphill move is
  // accepted with probability ~0.5 at the start.
  double temp = config.initial_temp;
  if (temp <= 0.0) {
    util::Accumulator probe;
    for (int s = 0; s < 64; ++s) {
      const auto neuron = static_cast<std::uint32_t>(rng.below(n));
      const auto to = static_cast<CrossbarId>(rng.below(c));
      const std::int64_t delta = eval.delta(neuron, to);
      if (delta > 0) probe.add(static_cast<double>(delta));
    }
    temp = probe.empty() ? 1.0 : probe.mean() / std::log(2.0);
    if (temp <= 0.0) temp = 1.0;
  }

  const std::uint64_t history_stride =
      config.track_history ? std::max<std::uint64_t>(1, config.moves / 100) : 0;

  for (std::uint64_t step = 0; step < config.moves; ++step) {
    ++result.moves_proposed;
    const bool do_swap = rng.chance(kSwapProbability);
    if (do_swap) {
      // Swap the crossbars of two neurons (capacity preserved trivially).
      const auto a = static_cast<std::uint32_t>(rng.below(n));
      const auto b = static_cast<std::uint32_t>(rng.below(n));
      const CrossbarId ca = eval.crossbar_of(a);
      const CrossbarId cb = eval.crossbar_of(b);
      if (ca == cb) continue;
      const std::int64_t d1 = eval.delta(a, cb);
      eval.apply(a, cb);
      const std::int64_t d2 = eval.delta(b, ca);
      const std::int64_t delta = d1 + d2;
      const bool accept =
          delta <= 0 ||
          rng.uniform() < std::exp(-static_cast<double>(delta) / temp);
      if (accept) {
        eval.apply(b, ca);
        current_cost = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(current_cost) + delta);
        ++result.moves_accepted;
      } else {
        eval.apply(a, ca);  // roll back
      }
    } else {
      // Move one neuron to a crossbar with free capacity.
      const auto neuron = static_cast<std::uint32_t>(rng.below(n));
      const auto to = static_cast<CrossbarId>(rng.below(c));
      const CrossbarId from = eval.crossbar_of(neuron);
      if (to == from || occ[to] >= arch.neurons_per_crossbar) continue;
      const std::int64_t delta = eval.delta(neuron, to);
      const bool accept =
          delta <= 0 ||
          rng.uniform() < std::exp(-static_cast<double>(delta) / temp);
      if (accept) {
        eval.apply(neuron, to);
        --occ[from];
        ++occ[to];
        current_cost = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(current_cost) + delta);
        ++result.moves_accepted;
      }
    }
    if (current_cost < result.best_cost) {
      result.best_cost = current_cost;
      snapshot_best();
    }
    temp *= kCooling;
    if (history_stride && step % history_stride == 0) {
      result.history.push_back(result.best_cost);
    }
  }
  result.best.validate(arch);
  return result;
}

}  // namespace

AnnealingResult annealing_partition(const snn::SnnGraph& graph,
                                    const hw::Architecture& arch,
                                    const AnnealingConfig& config) {
  const std::uint32_t restarts = std::max<std::uint32_t>(1, config.restarts);
  const CostModel cost(graph);
  const Partition start = pacman_partition(graph, arch);
  if (restarts == 1) {
    return anneal_chain(cost, arch, config, start, config.seed);
  }

  // Chain seeds are a pure function of (base seed, chain index) — chain 0
  // reuses the base seed verbatim — so the winner does not depend on thread
  // count or completion order.
  std::vector<AnnealingResult> chains(restarts);
  util::ThreadPool pool(
      std::min(util::ThreadPool::resolve(config.threads), restarts));
  pool.parallel_for(restarts, [&](std::uint32_t, std::size_t i) {
    const std::uint64_t seed =
        i == 0 ? config.seed
               : config.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
    chains[i] = anneal_chain(cost, arch, config, start, seed);
  });

  std::size_t winner = 0;
  for (std::size_t i = 1; i < chains.size(); ++i) {
    if (chains[i].best_cost < chains[winner].best_cost) winner = i;
  }
  std::uint64_t proposed = 0;
  std::uint64_t accepted = 0;
  for (const AnnealingResult& chain : chains) {
    proposed += chain.moves_proposed;
    accepted += chain.moves_accepted;
  }
  AnnealingResult result = std::move(chains[winner]);
  result.best_chain = static_cast<std::uint32_t>(winner);
  result.moves_proposed = proposed;
  result.moves_accepted = accepted;
  return result;
}

}  // namespace snnmap::core
