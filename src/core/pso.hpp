// Binary particle swarm optimization for SNN partitioning — Sec. III.
//
// Dimensions are the paper's x_{i,k} allocation variables (D = N * C).
// Velocities update per Eq. 1 (with an inertia weight and per-component
// random scaling of the cognitive/social terms, the standard Eberhart-
// Kennedy instantiation the paper cites); positions binarize through the
// sigmoid rule of Eqs. 2-3: bit x_{i,k} is set when a uniform draw falls
// below sigmoid(v_{i,k}).  One read-only table of sigmoid brackets over the
// clamped velocity range (core/sigmoid_bracket.hpp) settles almost every
// draw with two comparisons; only a draw inside its bracket evaluates the
// sigmoid, so each bit is exactly the one the exp-based rule draws.
// Position, pbest and gbest are one-hot, so the cognitive and social terms
// of Eq. 1 are nonzero on at most three of a neuron's C dimensions, and
// their random scalings are drawn only there (at most 4 draws per neuron).
// Raw binarized positions rarely satisfy the constraints, so two repair
// operators run after every update:
//   1. one-hot repair (Eq. 4): per neuron, keep exactly one set bit —
//      one bounded draw, uniform over the sampled set bits, or roulette
//      proportional to the exact sigmoid probabilities when none was
//      sampled (about 0.4% of neurons);
//   2. capacity repair (Eq. 5): random residents of overloaded crossbars
//      are evicted, then each is re-placed on the feasible crossbar that
//      cuts the fewest of its incident spikes, found by tallying in one
//      pass over its incidence the spikes it shares with each crossbar.
// The swarm can be seeded with the PACMAN/NEUTRAMS baseline solutions
// (memetic seeding, on by default): the paper reports PSO always at or
// below both baselines, which seeding guarantees by construction.
// Each swarm step fans out over a util::ThreadPool (PsoConfig::threads),
// one task per particle, all scoring against one shared read-only
// CostModel: the velocity update, binarization, repair and fitness of
// particle pi at step t draw only from pi's own random stream, seeded from
// (seed, t, pi) — step 0 is the initialization.  The pbest/gbest scan and
// the memetic refinement run on the caller's thread in particle order, so
// results are identical at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost.hpp"
#include "core/partition.hpp"
#include "hw/architecture.hpp"
#include "snn/graph.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace snnmap::core {

struct PsoConfig {
  std::uint32_t swarm_size = 100;   ///< np (paper explores 10..1000, Fig. 7)
  std::uint32_t iterations = 100;   ///< fixed to 100 in the paper
  bool seed_with_baselines = true;  ///< include PACMAN/NEUTRAMS particles
  /// Fitness definition (see Objective); AER packets by default.
  Objective objective = Objective::kAerPackets;
  /// Memetic local search: whenever the swarm best improves, run up to this
  /// many greedy single-neuron sweeps (incremental AER deltas) on it.  This
  /// is what lets a laptop-budget swarm reach the optima the paper obtained
  /// with 1000 particles x 100 iterations x 35 min on a cloud VM.  0
  /// disables; only applies to the kAerPackets objective.
  std::uint32_t refine_sweeps = 4;
  /// Swap-based refinement attempts per improvement, as a multiple of the
  /// neuron count (swaps escape capacity-blocked local optima; see
  /// IncrementalAerCost::swap_refine).  0 disables.
  std::uint32_t refine_swap_factor = 8;
  std::uint64_t seed = 42;
  /// Worker threads for the per-particle swarm steps: 0 = one per hardware
  /// thread, 1 = serial.  Results are identical for every value (each
  /// particle step draws from its own stream seeded from (seed, step,
  /// particle).
  std::uint32_t threads = 0;
  bool track_history = false;       ///< record Gbest cost per iteration
};

struct PsoResult {
  Partition best;
  std::uint64_t best_cost = 0;          ///< F at the optimum (see objective)
  std::uint32_t iterations_run = 0;
  std::uint64_t fitness_evaluations = 0;
  std::vector<std::uint64_t> history;   ///< Gbest per iteration (if tracked)
};

class PsoPartitioner {
 public:
  PsoPartitioner(const snn::SnnGraph& graph, const hw::Architecture& arch,
                 PsoConfig config);

  /// Runs the swarm and returns the best feasible partition found.
  PsoResult optimize();

 private:
  struct Particle {
    std::vector<float> velocity;        // N * C
    std::vector<CrossbarId> position;   // one-hot as assignment vector
    std::vector<CrossbarId> best_position;
    std::uint64_t best_cost = ~0ULL;
  };

  /// Step buffers of one worker, reused across the particle steps it runs.
  struct RepairScratch {
    std::vector<double> row;                          // C Eq. 1 velocities
    std::vector<CrossbarId> picks;                    // sampled set bits
    std::vector<std::uint64_t> tally;                 // C shared spikes
    std::vector<std::uint32_t> occ;                   // C crossbar occupancies
    std::vector<std::uint32_t> pool;                  // evicted neurons
    std::vector<std::vector<std::uint32_t>> members;  // C resident lists
  };

  /// Runs step `iter` of every particle on the pool and writes its fitness
  /// into costs_: initialization (from `seeds` where given, else random) at
  /// iter 0, the Eq. 1-5 update towards `gbest` after.
  void step_swarm(std::vector<Particle>& swarm, std::uint32_t iter,
                  const std::vector<CrossbarId>& gbest,
                  const std::vector<std::vector<CrossbarId>>& seeds);
  void update_particle(Particle& p, const std::vector<CrossbarId>& gbest,
                       util::Rng& rng, RepairScratch& scratch) const;
  void binarize_and_repair(Particle& p, util::Rng& rng,
                           RepairScratch& scratch) const;
  void capacity_repair(std::vector<CrossbarId>& assignment, util::Rng& rng,
                       RepairScratch& scratch) const;
  std::vector<CrossbarId> random_assignment(util::Rng& rng) const;

  const snn::SnnGraph& graph_;
  hw::Architecture arch_;
  PsoConfig config_;
  CostModel model_;                     ///< shared by every worker
  util::ThreadPool pool_;
  std::vector<RepairScratch> scratch_;  ///< one per pool worker
  std::vector<std::uint64_t> costs_;    ///< per-particle fitness slots
  std::uint64_t evaluations_ = 0;
};

}  // namespace snnmap::core
