#include "core/pso.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/incremental.hpp"
#include "core/neutrams.hpp"
#include "core/pacman.hpp"
#include "core/sigmoid_bracket.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace snnmap::core {
namespace {

// Eq. 1 constants: the standard Eberhart-Kennedy setting.
constexpr double kInertia = 0.72;  ///< velocity memory (omega)
constexpr double kPhi1 = 1.49;     ///< cognitive constant
constexpr double kPhi2 = 1.49;     ///< social constant
using detail::kVMax;
using detail::sigmoid;

/// Seed of particle `pi`'s random stream at swarm step `iter` (0 is the
/// initialization): a pure function of (seed, iter, pi), distinct for every
/// (iter, pi) pair, so no particle's draws depend on another's or on the
/// worker that runs it.
std::uint64_t particle_stream(std::uint64_t seed, std::uint32_t iter,
                              std::size_t pi) noexcept {
  return util::mix64(util::mix64(seed) ^
                     ((std::uint64_t{iter} << 32) | pi));
}

}  // namespace

PsoPartitioner::PsoPartitioner(const snn::SnnGraph& graph,
                               const hw::Architecture& arch, PsoConfig config)
    : graph_(graph),
      arch_(arch),
      config_(config),
      model_(graph),
      // Workers beyond the swarm size would never receive a particle.
      pool_(std::min(util::ThreadPool::resolve(config.threads),
                     std::max<std::uint32_t>(1, config.swarm_size))),
      scratch_(pool_.size()),
      costs_(config.swarm_size) {
  if (!arch.fits(graph.neuron_count())) {
    throw std::invalid_argument("PsoPartitioner: network does not fit (" +
                                std::to_string(graph.neuron_count()) + " > " +
                                std::to_string(arch.capacity()) + " neurons)");
  }
  if (config_.swarm_size == 0) {
    throw std::invalid_argument("PsoPartitioner: swarm size must be >= 1");
  }
  if (config_.iterations == 0) {
    throw std::invalid_argument("PsoPartitioner: iterations must be >= 1");
  }
}

void PsoPartitioner::step_swarm(
    std::vector<Particle>& swarm, std::uint32_t iter,
    const std::vector<CrossbarId>& gbest,
    const std::vector<std::vector<CrossbarId>>& seeds) {
  // Task pi touches only swarm[pi], costs_[pi] and its worker's scratch;
  // the model, gbest and seeds are read-only while the pool runs.
  pool_.parallel_for(swarm.size(), [&](std::uint32_t worker, std::size_t pi) {
    Particle& p = swarm[pi];
    util::Rng rng(particle_stream(config_.seed, iter, pi));
    if (iter == 0) {
      p.velocity.resize(static_cast<std::size_t>(graph_.neuron_count()) *
                        arch_.crossbar_count);
      for (auto& v : p.velocity) {
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      p.position = pi < seeds.size() ? seeds[pi] : random_assignment(rng);
    } else {
      update_particle(p, gbest, rng, scratch_[worker]);
    }
    costs_[pi] = model_.objective_cost(p.position, config_.objective);
  });
  evaluations_ += swarm.size();
}

std::vector<CrossbarId> PsoPartitioner::random_assignment(
    util::Rng& rng) const {
  // Random feasible assignment: shuffle neurons, deal them into crossbars
  // round-robin with capacity tracking.
  const std::uint32_t n = graph_.neuron_count();
  const std::uint32_t c = arch_.crossbar_count;
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<CrossbarId> assignment(n, kUnassigned);
  std::vector<std::uint32_t> occ(c, 0);
  for (const std::uint32_t neuron : order) {
    // Uniform among crossbars with free capacity.
    CrossbarId pick = kUnassigned;
    std::uint32_t seen = 0;
    for (CrossbarId k = 0; k < c; ++k) {
      if (occ[k] >= arch_.neurons_per_crossbar) continue;
      ++seen;
      if (rng.below(seen) == 0) pick = k;
    }
    assignment[neuron] = pick;
    ++occ[pick];
  }
  return assignment;
}

void PsoPartitioner::capacity_repair(std::vector<CrossbarId>& assignment,
                                     util::Rng& rng,
                                     RepairScratch& scratch) const {
  const std::uint32_t c = arch_.crossbar_count;
  const std::uint32_t cap = arch_.neurons_per_crossbar;
  auto& occ = scratch.occ;
  occ.assign(c, 0);
  for (const CrossbarId k : assignment) {
    if (k != kUnassigned) ++occ[k];
  }
  // Evict random residents of overloaded crossbars into a pool...
  auto& pool = scratch.pool;
  auto& members = scratch.members;
  pool.clear();
  members.resize(c);
  for (auto& m : members) m.clear();
  for (std::uint32_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] != kUnassigned) members[assignment[i]].push_back(i);
  }
  for (CrossbarId k = 0; k < c; ++k) {
    while (occ[k] > cap) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.below(members[k].size()));
      const std::uint32_t neuron = members[k][pick];
      members[k][pick] = members[k].back();
      members[k].pop_back();
      assignment[neuron] = kUnassigned;
      pool.push_back(neuron);
      --occ[k];
    }
  }
  // ...then re-place each pooled neuron on the feasible crossbar that cuts
  // the fewest incident spikes (greedy, cheapest-first order is the pool's
  // random order — adequate and cheap).  One pass over the neuron's
  // incidence tallies the spikes it shares with each crossbar's residents;
  // placing it on k cuts the rest, so the first feasible crossbar with the
  // largest tally is the first with the smallest cut.  The scan zeroes the
  // row for the next neuron.
  auto& tally = scratch.tally;
  tally.assign(c, 0);
  for (const std::uint32_t neuron : pool) {
    model_.tally_incident_spikes(assignment, neuron, tally);
    CrossbarId best = kUnassigned;
    std::uint64_t best_tally = 0;
    for (CrossbarId k = 0; k < c; ++k) {
      const std::uint64_t shared = tally[k];
      tally[k] = 0;
      if (occ[k] >= cap) continue;
      if (best == kUnassigned || shared > best_tally) {
        best_tally = shared;
        best = k;
      }
    }
    if (best == kUnassigned) {
      throw std::logic_error("PsoPartitioner: no capacity left during repair");
    }
    assignment[neuron] = best;
    ++occ[best];
  }
}

void PsoPartitioner::update_particle(Particle& p,
                                     const std::vector<CrossbarId>& gbest,
                                     util::Rng& rng,
                                     RepairScratch& scratch) const {
  // Velocity + position update (Eq. 1 with inertia and per-component random
  // scaling), then binarize + repair (Eqs. 2-5).  Position, pbest and gbest
  // are one-hot, so (pb - x) and (gb - x) are nonzero only on crossbars
  // xi, pbi and gbi: every other dimension is exactly inertia * v, and the
  // random terms are drawn only where they are nonzero.  Each dimension adds
  // its terms in Eq. 1's order (inertia, cognitive, social).
  const std::uint32_t n = graph_.neuron_count();
  const std::uint32_t c = arch_.crossbar_count;
  auto& acc = scratch.row;
  acc.resize(c);
  for (std::uint32_t i = 0; i < n; ++i) {
    float* v = p.velocity.data() + static_cast<std::size_t>(i) * c;
    for (std::uint32_t k = 0; k < c; ++k) {
      acc[k] = kInertia * static_cast<double>(v[k]);
    }
    const CrossbarId xi = p.position[i];
    const CrossbarId pbi = p.best_position.empty() ? xi : p.best_position[i];
    const CrossbarId gbi = gbest[i];
    if (pbi != xi) {
      acc[xi] -= kPhi1 * rng.uniform();
      acc[pbi] += kPhi1 * rng.uniform();
    }
    if (gbi != xi) {
      acc[xi] -= kPhi2 * rng.uniform();
      acc[gbi] += kPhi2 * rng.uniform();
    }
    for (std::uint32_t k = 0; k < c; ++k) {
      v[k] = static_cast<float>(std::clamp(acc[k], -kVMax, kVMax));
    }
  }
  binarize_and_repair(p, rng, scratch);
}

void PsoPartitioner::binarize_and_repair(Particle& p, util::Rng& rng,
                                         RepairScratch& scratch) const {
  const std::uint32_t n = graph_.neuron_count();
  const std::uint32_t c = arch_.crossbar_count;
  // Per-neuron stochastic binarization (Eqs. 2-3) followed by one-hot repair
  // (Eq. 4): among the sampled set bits keep one uniformly; if none were
  // sampled, roulette-select a crossbar proportionally to sigmoid(v).  The
  // set bits are collected without a branch, each settled by the bracket
  // table (no exp unless the draw falls inside its bracket), then one
  // bounded draw picks.
  const auto& bracket = detail::sigmoid_bracket();
  auto& picks = scratch.picks;
  picks.resize(c);
  for (std::uint32_t i = 0; i < n; ++i) {
    const float* v = p.velocity.data() + static_cast<std::size_t>(i) * c;
    std::uint32_t set_bits = 0;
    for (std::uint32_t k = 0; k < c; ++k) {
      picks[set_bits] = k;
      set_bits += bracket.below(rng.uniform(), static_cast<double>(v[k]));
    }
    CrossbarId chosen = kUnassigned;
    if (set_bits > 0) {
      chosen = picks[rng.below(set_bits)];
    } else {
      // The rare empty row (about 0.4% of neurons) recomputes the exact
      // probabilities rather than storing them.
      double prob_sum = 0.0;
      for (std::uint32_t k = 0; k < c; ++k) {
        prob_sum += sigmoid(static_cast<double>(v[k]));
      }
      double target = rng.uniform() * prob_sum;
      for (std::uint32_t k = 0; k < c; ++k) {
        target -= sigmoid(static_cast<double>(v[k]));
        if (target <= 0.0 || k == c - 1) {
          chosen = k;
          break;
        }
      }
    }
    p.position[i] = chosen;
  }
  capacity_repair(p.position, rng, scratch);
}

PsoResult PsoPartitioner::optimize() {
  const std::uint32_t n = graph_.neuron_count();
  const std::uint32_t c = arch_.crossbar_count;

  // Memetic seeding: the first particles start from the baselines, so the
  // swarm optimum can never be worse than either of them.
  std::vector<std::vector<CrossbarId>> seeds;
  if (config_.seed_with_baselines) {
    seeds.push_back(pacman_partition(graph_, arch_).assignment());
    if (config_.swarm_size > 1) {
      seeds.push_back(neutrams_partition(graph_, arch_).assignment());
    }
  }

  std::vector<CrossbarId> gbest;
  std::uint64_t gbest_cost = ~0ULL;
  PsoResult result;

  std::vector<Particle> swarm(config_.swarm_size);
  step_swarm(swarm, 0, gbest, seeds);
  for (std::uint32_t iter = 0; iter < config_.iterations; ++iter) {
    bool improved = false;
    for (std::size_t pi = 0; pi < swarm.size(); ++pi) {
      Particle& p = swarm[pi];
      const std::uint64_t f = costs_[pi];
      if (f < p.best_cost) {
        p.best_cost = f;
        p.best_position = p.position;
      }
      if (f < gbest_cost) {
        gbest_cost = f;
        gbest = p.position;
        improved = true;
      }
    }
    if (improved &&
        (config_.refine_sweeps > 0 || config_.refine_swap_factor > 0) &&
        config_.objective == Objective::kAerPackets) {
      // Memetic step: polish the new swarm best with greedy single-neuron
      // moves plus stochastic improving swaps.
      IncrementalAerCost refiner(graph_, gbest, c);
      refiner.greedy_refine(arch_.neurons_per_crossbar,
                            config_.refine_sweeps);
      if (config_.refine_swap_factor > 0) {
        util::Rng swap_rng(config_.seed ^ (0x53A9'0000ULL + iter));
        refiner.swap_refine(
            static_cast<std::uint64_t>(config_.refine_swap_factor) * n,
            swap_rng);
        refiner.greedy_refine(arch_.neurons_per_crossbar,
                              config_.refine_sweeps);
      }
      if (refiner.cost() < gbest_cost) {
        gbest = refiner.assignment();
        gbest_cost = refiner.cost();
      }
    }
    if (config_.track_history) result.history.push_back(gbest_cost);
    result.iterations_run = iter + 1;

    if (iter + 1 == config_.iterations) break;  // skip final wasted update

    step_swarm(swarm, iter + 1, gbest, seeds);
  }

  result.best = Partition(n, c);
  for (std::uint32_t i = 0; i < n; ++i) result.best.assign(i, gbest[i]);
  result.best.validate(arch_);
  result.best_cost = gbest_cost;
  result.fitness_evaluations = evaluations_;
  util::log_info("PSO: best cost ", gbest_cost, " after ",
                 result.iterations_run, " iterations, ", evaluations_,
                 " evaluations");
  return result;
}

}  // namespace snnmap::core
