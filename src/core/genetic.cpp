#include "core/genetic.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/neutrams.hpp"
#include "core/pacman.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace snnmap::core {
namespace {

constexpr double kCrossoverRate = 0.9;  ///< chance of uniform crossover
constexpr std::uint32_t kTournament = 3;  ///< contestants per selection
constexpr double kMutationRate = 0.02;  ///< per-gene reassignment probability

using Genome = std::vector<CrossbarId>;

/// Moves overflow genes to the emptiest feasible crossbar (cheap repair; the
/// GA relies on selection pressure more than on smart repair).
void repair(Genome& g, const hw::Architecture& arch, util::Rng& rng) {
  const std::uint32_t c = arch.crossbar_count;
  std::vector<std::uint32_t> occ(c, 0);
  for (const CrossbarId k : g) ++occ[k];
  for (std::uint32_t i = 0; i < g.size(); ++i) {
    if (occ[g[i]] <= arch.neurons_per_crossbar) continue;
    // Pick the least-occupied crossbar (random tie-break).
    CrossbarId best = 0;
    std::uint32_t ties = 0;
    for (CrossbarId k = 0; k < c; ++k) {
      if (occ[k] < occ[best]) {
        best = k;
        ties = 1;
      } else if (occ[k] == occ[best]) {
        ++ties;
        if (rng.below(ties) == 0) best = k;
      }
    }
    --occ[g[i]];
    g[i] = best;
    ++occ[best];
  }
}

}  // namespace

GeneticResult genetic_partition(const snn::SnnGraph& graph,
                                const hw::Architecture& arch,
                                const GeneticConfig& config) {
  if (!arch.fits(graph.neuron_count())) {
    throw std::invalid_argument("genetic_partition: network does not fit");
  }
  if (config.population < 2) {
    throw std::invalid_argument("genetic_partition: population must be >= 2");
  }
  if (config.generations == 0) {
    throw std::invalid_argument("genetic_partition: generations must be >= 1");
  }
  util::Rng rng(config.seed);
  const CostModel model(graph);
  util::ThreadPool pool(
      std::min(util::ThreadPool::resolve(config.threads), config.population));
  const std::uint32_t n = graph.neuron_count();
  const std::uint32_t c = arch.crossbar_count;

  std::vector<Genome> population(config.population);
  for (auto& g : population) {
    g.resize(n);
    for (auto& gene : g) gene = static_cast<CrossbarId>(rng.below(c));
    repair(g, arch, rng);
  }
  population[0] = pacman_partition(graph, arch).assignment();
  population[1] = neutrams_partition(graph, arch).assignment();

  GeneticResult result;
  std::vector<std::uint64_t> fitness(config.population);
  Genome best;
  std::uint64_t best_cost = ~0ULL;

  const auto tournament_pick = [&]() -> std::size_t {
    std::size_t winner = static_cast<std::size_t>(rng.below(population.size()));
    for (std::uint32_t t = 1; t < kTournament; ++t) {
      const std::size_t rival =
          static_cast<std::size_t>(rng.below(population.size()));
      if (fitness[rival] < fitness[winner]) winner = rival;
    }
    return winner;
  };

  for (std::uint32_t gen = 0; gen < config.generations; ++gen) {
    pool.parallel_for(population.size(), [&](std::uint32_t, std::size_t i) {
      fitness[i] = model.objective_cost(population[i], config.objective);
    });
    result.fitness_evaluations += population.size();
    for (std::size_t i = 0; i < population.size(); ++i) {
      if (fitness[i] < best_cost) {
        best_cost = fitness[i];
        best = population[i];
      }
    }
    if (config.track_history) result.history.push_back(best_cost);
    result.generations_run = gen + 1;
    if (gen + 1 == config.generations) break;

    std::vector<Genome> next;
    next.reserve(population.size());
    next.push_back(best);  // elitism
    while (next.size() < population.size()) {
      Genome child = population[tournament_pick()];
      if (rng.chance(kCrossoverRate)) {
        const Genome& other = population[tournament_pick()];
        for (std::uint32_t i = 0; i < n; ++i) {
          if (rng.chance(0.5)) child[i] = other[i];
        }
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        if (rng.chance(kMutationRate)) {
          child[i] = static_cast<CrossbarId>(rng.below(c));
        }
      }
      repair(child, arch, rng);
      next.push_back(std::move(child));
    }
    population = std::move(next);
  }

  result.best = Partition(n, c);
  for (std::uint32_t i = 0; i < n; ++i) result.best.assign(i, best[i]);
  result.best.validate(arch);
  result.best_cost = best_cost;
  return result;
}

}  // namespace snnmap::core
