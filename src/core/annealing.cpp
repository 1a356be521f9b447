#include "core/annealing.hpp"

#include <algorithm>
#include <cmath>

#include "core/incremental.hpp"
#include "core/pacman.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace snnmap::core {
namespace {

constexpr double kCooling = 0.999;  ///< geometric factor per evaluated move
constexpr double kSwapProbability = 0.3;  ///< swap two neurons vs one move

}  // namespace

AnnealingResult annealing_partition(const snn::SnnGraph& graph,
                                    const hw::Architecture& arch,
                                    const AnnealingConfig& config) {
  const Partition start = pacman_partition(graph, arch);
  util::Rng rng(config.seed);

  const std::uint32_t n = graph.neuron_count();
  const std::uint32_t c = arch.crossbar_count;

  AnnealingResult result;
  result.best = start;
  IncrementalAerCost aer(graph, start.assignment(), c);
  result.best_cost = aer.cost();
  if (n == 0 || c < 2) return result;  // nothing to optimize

  const std::vector<std::uint32_t>& occ = aer.occupancy();

  // Auto-calibrate the initial temperature so a median uphill move is
  // accepted with probability ~0.5 at the start.
  util::Accumulator probe;
  for (int s = 0; s < 64; ++s) {
    const auto neuron = static_cast<std::uint32_t>(rng.below(n));
    const auto to = static_cast<CrossbarId>(rng.below(c));
    const std::int64_t delta = aer.move_delta(neuron, to);
    if (delta > 0) probe.add(static_cast<double>(delta));
  }
  double temp = probe.empty() ? 1.0 : probe.mean() / std::log(2.0);
  if (temp <= 0.0) temp = 1.0;

  const std::uint64_t history_stride =
      config.track_history ? std::max<std::uint64_t>(1, config.moves / 100) : 0;

  for (std::uint64_t step = 0; step < config.moves; ++step) {
    ++result.moves_proposed;
    const bool do_swap = rng.chance(kSwapProbability);
    if (do_swap) {
      // Swap the crossbars of two neurons (capacity preserved trivially).
      const auto a = static_cast<std::uint32_t>(rng.below(n));
      const auto b = static_cast<std::uint32_t>(rng.below(n));
      const CrossbarId ca = aer.crossbar_of(a);
      const CrossbarId cb = aer.crossbar_of(b);
      if (ca == cb) continue;
      const std::int64_t d1 = aer.move_delta(a, cb);
      aer.apply_move(a, cb);
      const std::int64_t d2 = aer.move_delta(b, ca);
      const std::int64_t delta = d1 + d2;
      const bool accept =
          delta <= 0 ||
          rng.uniform() < std::exp(-static_cast<double>(delta) / temp);
      if (accept) {
        aer.apply_move(b, ca);
        ++result.moves_accepted;
      } else {
        aer.apply_move(a, ca);  // roll back
      }
    } else {
      // Move one neuron to a crossbar with free capacity.
      const auto neuron = static_cast<std::uint32_t>(rng.below(n));
      const auto to = static_cast<CrossbarId>(rng.below(c));
      const CrossbarId from = aer.crossbar_of(neuron);
      if (to == from || occ[to] >= arch.neurons_per_crossbar) continue;
      const std::int64_t delta = aer.move_delta(neuron, to);
      const bool accept =
          delta <= 0 ||
          rng.uniform() < std::exp(-static_cast<double>(delta) / temp);
      if (accept) {
        aer.apply_move(neuron, to);
        ++result.moves_accepted;
      }
    }
    if (aer.cost() < result.best_cost) {
      result.best_cost = aer.cost();
      Partition snapshot(n, c);
      for (std::uint32_t i = 0; i < n; ++i) {
        snapshot.assign(i, aer.assignment()[i]);
      }
      result.best = std::move(snapshot);
    }
    temp *= kCooling;
    if (history_stride && step % history_stride == 0) {
      result.history.push_back(result.best_cost);
    }
  }
  result.best.validate(arch);
  return result;
}

}  // namespace snnmap::core
