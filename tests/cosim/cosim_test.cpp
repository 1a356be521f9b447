// CoSimulator unit tests: config/mapping validation parity with the other
// engines, the lockstep loop's fidelity accounting, congestion-induced
// divergence, bounded-receive-queue drops, and the snn::Simulator deferred
// seam's own contract.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/partition.hpp"
#include "core/placement.hpp"
#include "cosim/cosim.hpp"
#include "cosim/fidelity.hpp"
#include "noc/topology.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "util/rng.hpp"

namespace snnmap::cosim {
namespace {

/// Two Poisson-driven LIF populations wired across both directions, with a
/// multi-step delay so remote timing matters.
snn::Network two_block_network(std::uint64_t wiring_seed = 5,
                               double input_hz = 60.0) {
  snn::Network net;
  util::Rng rng(wiring_seed);
  const auto in = net.add_poisson_group("in", 12, input_hz);
  const auto a = net.add_lif_group("a", 12);
  const auto b = net.add_lif_group("b", 12);
  net.connect_random(in, a, 0.7, snn::WeightSpec::uniform(9.0, 14.0), rng);
  net.connect_random(a, b, 0.5, snn::WeightSpec::uniform(8.0, 12.0), rng,
                     /*delay=*/2);
  net.connect_random(b, a, 0.4, snn::WeightSpec::uniform(-4.0, -2.0), rng,
                     /*delay=*/3);
  return net;
}

/// in + a on crossbar 0, b on crossbar 1: the a<->b projections are cut.
core::Partition two_block_partition(const snn::Network& net) {
  core::Partition partition(net.neuron_count(), 2);
  for (snn::NeuronId i = 0; i < net.neuron_count(); ++i) {
    partition.assign(i, i < 24 ? 0 : 1);
  }
  return partition;
}

CoSimConfig base_config(double duration_ms = 200.0,
                        std::uint32_t cpt = 4096) {
  CoSimConfig config;
  config.snn.duration_ms = duration_ms;
  config.snn.seed = 9;
  config.cycles_per_timestep = cpt;
  return config;
}

CoSimResult run_two_block(const CoSimConfig& config) {
  snn::Network net = two_block_network();
  const auto partition = two_block_partition(net);
  noc::Topology topology = noc::Topology::ring(2);
  const auto placement = core::identity_placement(2, topology);
  CoSimulator sim(net, partition, placement, std::move(topology), config);
  return sim.run();
}

TEST(CoSimConfig, RejectsZeroCyclesPerTimestep) {
  snn::Network net = two_block_network();
  const auto partition = two_block_partition(net);
  noc::Topology topology = noc::Topology::ring(2);
  const auto placement = core::identity_placement(2, topology);
  auto config = base_config();
  config.cycles_per_timestep = 0;
  EXPECT_THROW(
      CoSimulator(net, partition, placement, std::move(topology), config),
      std::invalid_argument);
}

TEST(CoSimConfig, RejectsZeroReceiveQueueDepth) {
  snn::Network net = two_block_network();
  const auto partition = two_block_partition(net);
  noc::Topology topology = noc::Topology::ring(2);
  const auto placement = core::identity_placement(2, topology);
  auto config = base_config();
  config.receive_queue_depth = 0;
  EXPECT_THROW(
      CoSimulator(net, partition, placement, std::move(topology), config),
      std::invalid_argument);
}

TEST(CoSimConfig, RejectsJitterAtOrBeyondWindow) {
  snn::Network net = two_block_network();
  const auto partition = two_block_partition(net);
  const auto placement =
      core::identity_placement(2, noc::Topology::ring(2));
  auto config = base_config();
  config.cycles_per_timestep = 100;
  config.injection_jitter_cycles = 100;
  EXPECT_THROW(
      CoSimulator(net, partition, placement, noc::Topology::ring(2), config),
      std::invalid_argument);
}

TEST(CoSimConfig, RejectsNanAndNegativeDurations) {
  snn::Network net = two_block_network();
  const auto partition = two_block_partition(net);
  const auto placement =
      core::identity_placement(2, noc::Topology::ring(2));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           std::numeric_limits<double>::infinity()}) {
    auto config = base_config();
    config.snn.duration_ms = bad;
    EXPECT_THROW(CoSimulator(net, partition, placement,
                             noc::Topology::ring(2), config),
                 std::invalid_argument)
        << bad;
  }
  auto config = base_config();
  config.snn.dt_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CoSimulator(net, partition, placement, noc::Topology::ring(2),
                           config),
               std::invalid_argument);
}

TEST(CoSimConfig, RejectsDegenerateNocConfigs) {
  snn::Network net = two_block_network();
  const auto partition = two_block_partition(net);
  const auto placement =
      core::identity_placement(2, noc::Topology::ring(2));
  auto config = base_config();
  config.noc.buffer_depth = 0;
  EXPECT_THROW(CoSimulator(net, partition, placement, noc::Topology::ring(2),
                           config),
               std::invalid_argument);
  config = base_config();
  config.noc.max_cycles = 0;
  EXPECT_THROW(CoSimulator(net, partition, placement, noc::Topology::ring(2),
                           config),
               std::invalid_argument);
}

TEST(CoSimConfig, RejectsBrokenMappings) {
  snn::Network net = two_block_network();
  noc::Topology topology = noc::Topology::ring(2);
  const auto placement = core::identity_placement(2, topology);
  const auto config = base_config();

  // Incomplete partition.
  core::Partition incomplete(net.neuron_count(), 2);
  EXPECT_THROW(CoSimulator(net, incomplete, placement, noc::Topology::ring(2),
                           config),
               std::invalid_argument);
  // Wrong neuron count.
  core::Partition wrong_size(net.neuron_count() + 1, 2);
  for (snn::NeuronId i = 0; i <= net.neuron_count(); ++i) {
    wrong_size.assign(i, 0);
  }
  EXPECT_THROW(CoSimulator(net, wrong_size, placement, noc::Topology::ring(2),
                           config),
               std::invalid_argument);
  const auto partition = two_block_partition(net);
  // Placement size mismatch.
  EXPECT_THROW(CoSimulator(net, partition, core::Placement{0},
                           noc::Topology::ring(2), config),
               std::invalid_argument);
  // Out-of-range tile.
  EXPECT_THROW(CoSimulator(net, partition, core::Placement{0, 7},
                           noc::Topology::ring(2), config),
               std::invalid_argument);
  // Duplicate tiles.
  EXPECT_THROW(CoSimulator(net, partition, core::Placement{1, 1},
                           noc::Topology::ring(2), config),
               std::invalid_argument);
}

TEST(CoSimConfig, RejectsCutPlasticSynapsesOnlyWhileStdpIsLive) {
  snn::Network net = two_block_network();
  // Make one cross-block synapse plastic: a (12..23) -> b (24..35).
  for (auto& s : net.mutable_synapses()) {
    if (s.pre >= 12 && s.pre < 24 && s.post >= 24) {
      s.plastic = true;
      break;
    }
  }
  const auto partition = two_block_partition(net);
  const auto placement =
      core::identity_placement(2, noc::Topology::ring(2));
  auto config = base_config();
  config.snn.enable_stdp = true;
  EXPECT_THROW(CoSimulator(net, partition, placement, noc::Topology::ring(2),
                           config),
               std::invalid_argument);
  // With STDP off the plastic flag is inert and the cut is legal.
  snn::Network frozen = net;
  EXPECT_NO_THROW(CoSimulator(frozen, partition, placement,
                              noc::Topology::ring(2), base_config()));
}

TEST(CoSimulator, IdealBudgetMatchesStandaloneBitForBit) {
  const auto config = base_config();
  const auto result = run_two_block(config);

  snn::Network reference = two_block_network();
  const auto ideal = snn::Simulator(reference, config.snn).run();

  EXPECT_GT(result.fidelity.packets_offered, 0u);
  EXPECT_EQ(result.fidelity.deadline_misses, 0u);
  EXPECT_EQ(result.fidelity.receive_drops, 0u);
  EXPECT_EQ(result.fidelity.undelivered, 0u);
  EXPECT_EQ(result.snn.total_spikes, ideal.total_spikes);
  EXPECT_EQ(result.snn.spikes, ideal.spikes);
  EXPECT_TRUE(
      spike_divergence(ideal.spikes, result.snn.spikes).identical());
}

TEST(CoSimulator, FidelityAccountingIsConsistent) {
  const auto result = run_two_block(base_config());
  const auto& f = result.fidelity;
  EXPECT_EQ(f.copies_offered,
            f.copies_accepted + f.receive_drops + f.undelivered);
  EXPECT_EQ(f.copies_arrived, f.copies_accepted + f.receive_drops);
  EXPECT_EQ(f.steps, 200u);
  EXPECT_EQ(f.per_step_misses.size(), f.steps);
  EXPECT_EQ(f.transit_cycles.count(), f.copies_arrived);
  EXPECT_EQ(result.noc.copies_delivered, f.copies_arrived);
}

TEST(CoSimulator, ShrinkingBudgetDegradesFidelity) {
  const auto ideal = run_two_block(base_config());
  const auto congested = run_two_block(base_config(200.0, /*cpt=*/2));

  EXPECT_EQ(ideal.fidelity.deadline_misses, 0u);
  EXPECT_GT(congested.fidelity.deadline_misses +
                congested.fidelity.undelivered,
            0u);

  snn::Network reference = two_block_network();
  const auto baseline =
      snn::Simulator(reference, base_config().snn).run();
  const auto divergence =
      spike_divergence(baseline.spikes, congested.snn.spikes);
  EXPECT_FALSE(divergence.identical());
  EXPECT_GT(divergence.fraction(), 0.0);
}

TEST(CoSimulator, BoundedReceiveQueueDropsCopies) {
  auto config = base_config(200.0, /*cpt=*/2);
  config.receive_queue_depth = 1;
  const auto result = run_two_block(config);
  EXPECT_GT(result.fidelity.receive_drops, 0u);
  EXPECT_EQ(result.fidelity.copies_offered,
            result.fidelity.copies_accepted + result.fidelity.receive_drops +
                result.fidelity.undelivered);
}

TEST(CoSimulator, LockstepTimelineOutrunsAOneShotMaxCyclesBound) {
  // max_cycles is a drain bound for one-shot traces; a healthy lockstep
  // run whose virtual timeline exceeds it must not halt mid-flight (the
  // CoSimulator raises the bound to cover steps x cycles_per_timestep).
  auto config = base_config(200.0, /*cpt=*/4096);
  config.noc.max_cycles = 10;  // << 200 * 4096 virtual cycles
  const auto result = run_two_block(config);
  EXPECT_GT(result.fidelity.copies_accepted, 0u);
  EXPECT_EQ(result.fidelity.undelivered, 0u);
  EXPECT_EQ(result.fidelity.deadline_misses, 0u);
}

TEST(CoSimulator, RunIsOneShot) {
  snn::Network net = two_block_network();
  const auto partition = two_block_partition(net);
  noc::Topology topology = noc::Topology::ring(2);
  const auto placement = core::identity_placement(2, topology);
  CoSimulator sim(net, partition, placement, std::move(topology),
                  base_config(50.0));
  sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(CoSimulator, PurelyLocalMappingShipsNothing) {
  snn::Network net = two_block_network();
  core::Partition partition(net.neuron_count(), 1);
  for (snn::NeuronId i = 0; i < net.neuron_count(); ++i) {
    partition.assign(i, 0);
  }
  noc::Topology topology = noc::Topology::ring(2);
  CoSimulator sim(net, partition, core::Placement{0}, std::move(topology),
                  base_config());
  const auto result = sim.run();
  EXPECT_EQ(result.fidelity.packets_offered, 0u);

  snn::Network reference = two_block_network();
  const auto ideal = snn::Simulator(reference, base_config().snn).run();
  EXPECT_EQ(result.snn.spikes, ideal.spikes);
}

TEST(CoSimulator, LateCopyInjectsOnlyItsTilesRecordsInFanOutOrder) {
  // One Poisson source on tile 0 whose cut records interleave tile A = 1
  // (a0, a1) and tile B = 2 (b0, b1), A, B, A, B, A, A in fan-out order, on
  // a line 0 - 1 - 2.  A one-cycle window makes every copy late, so each
  // copy's records reach the engine only through inject_remote.
  snn::Network net;
  net.add_poisson_group("src", 1, 150.0);
  net.add_lif_group("a", 2);  // neurons 1, 2
  net.add_lif_group("b", 2);  // neurons 3, 4
  // a0's three records sum to 60 only in fan-out order: +1e18 then -1e18
  // cancel exactly and the 60 survives; 60 added next to +1e18 is lost to
  // rounding, so any other order except swapping the two large weights
  // leaves a0 silent.
  net.add_synapse(0, 1, 1e18);
  net.add_synapse(0, 3, 60.0);
  net.add_synapse(0, 1, -1e18);
  net.add_synapse(0, 4, 60.0);
  net.add_synapse(0, 1, 60.0);
  net.add_synapse(0, 2, 60.0);
  core::Partition partition(net.neuron_count(), 3);
  partition.assign(0, 0);
  partition.assign(1, 1);
  partition.assign(2, 1);
  partition.assign(3, 2);
  partition.assign(4, 2);
  noc::Topology topology = noc::Topology::mesh(3, 1);
  const auto placement = core::identity_placement(3, topology);
  CoSimulator sim(net, partition, placement, std::move(topology),
                  base_config(100.0, /*cpt=*/1));
  const CoSimResult result = sim.run();

  ASSERT_GT(result.fidelity.copies_accepted, 0u);
  EXPECT_EQ(result.fidelity.deadline_misses, result.fidelity.copies_accepted);
  const auto& spikes = result.snn.spikes;
  ASSERT_FALSE(spikes[2].empty());
  ASSERT_FALSE(spikes[3].empty());
  // A's copy carries exactly A's records, summed in fan-out order...
  EXPECT_EQ(spikes[1], spikes[2]);
  // ...and B's copy exactly B's, arriving later over the extra hop.
  EXPECT_EQ(spikes[3], spikes[4]);
  EXPECT_LT(spikes[2].front(), spikes[3].front());
}

TEST(CoSimulator, StdpWithoutPlasticSynapsesMatchesStdpOffUnderCongestion) {
  // Oracle: with no plastic synapse the STDP switch only changes which
  // delivery path the flush takes, so a congested run (late copies on
  // every window) must not move by a bit.  A flush that delivered an
  // un-landed cut record on the STDP path would fire extra spikes here.
  auto off = base_config(200.0, /*cpt=*/3);
  auto on = off;
  on.snn.enable_stdp = true;
  const CoSimResult a = run_two_block(off);
  const CoSimResult b = run_two_block(on);
  EXPECT_GT(a.fidelity.deadline_misses, 0u);
  EXPECT_EQ(a.snn.total_spikes, b.snn.total_spikes);
  EXPECT_EQ(a.snn.spikes, b.snn.spikes);
  EXPECT_EQ(a.fidelity.deadline_misses, b.fidelity.deadline_misses);
  EXPECT_EQ(a.fidelity.copies_accepted, b.fidelity.copies_accepted);
  EXPECT_EQ(a.fidelity.per_step_misses, b.fidelity.per_step_misses);
}

/// The co-simulator's bookkeeping after a run that shipped nothing: every
/// step ran, no packet was offered and nothing is left in flight.
void expect_ran_empty(const CoSimResult& r, const CoSimConfig& config) {
  const std::uint64_t steps = snn::simulation_step_count(config.snn);
  EXPECT_EQ(r.fidelity.steps, steps);
  EXPECT_EQ(r.fidelity.per_step_cycles.size(), steps);
  EXPECT_DOUBLE_EQ(r.snn.duration_ms,
                   static_cast<double>(steps) * config.snn.dt_ms);
  EXPECT_EQ(r.fidelity.packets_offered, 0u);
  EXPECT_EQ(r.fidelity.copies_offered, 0u);
  EXPECT_EQ(r.fidelity.undelivered, 0u);
  EXPECT_EQ(r.resilience.pending_at_end, 0u);
  EXPECT_EQ(r.noc.copies_delivered, 0u);
}

TEST(CoSimulator, EmptyNetworkRunsEveryStepAndShipsNothing) {
  snn::Network net;
  const core::Partition partition(0, 1);
  noc::Topology topology = noc::Topology::ring(2);
  const auto config = base_config(50.0);
  CoSimulator sim(net, partition, core::Placement{0}, std::move(topology),
                  config);
  const CoSimResult r = sim.run();
  expect_ran_empty(r, config);
  EXPECT_TRUE(r.snn.spikes.empty());
  EXPECT_EQ(r.snn.total_spikes, 0u);
}

TEST(CoSimulator, SilentNetworkMatchesStandalone) {
  // Zero-rate input: the cut a <-> b synapses exist but never carry a
  // spike, so the loop offers nothing and equals the standalone engine.
  snn::Network net = two_block_network(5, /*input_hz=*/0.0);
  const auto partition = two_block_partition(net);
  noc::Topology topology = noc::Topology::ring(2);
  const auto placement = core::identity_placement(2, topology);
  const auto config = base_config(50.0);
  CoSimulator sim(net, partition, placement, std::move(topology), config);
  const CoSimResult r = sim.run();
  expect_ran_empty(r, config);

  snn::Network reference = two_block_network(5, /*input_hz=*/0.0);
  const auto standalone = snn::Simulator(reference, config.snn).run();
  EXPECT_EQ(r.snn.total_spikes, standalone.total_spikes);
  EXPECT_EQ(r.snn.spikes, standalone.spikes);
  EXPECT_EQ(r.snn.duration_ms, standalone.duration_ms);
}

TEST(SpikeDivergence, CountsAndFraction) {
  const std::vector<snn::SpikeTrain> a = {{1.0, 2.0, 3.0}, {}, {5.0}};
  const std::vector<snn::SpikeTrain> b = {{1.0, 2.5, 3.0}, {4.0}, {5.0}};
  const auto d = spike_divergence(a, b);
  EXPECT_EQ(d.matched, 3u);
  EXPECT_EQ(d.only_ideal, 1u);
  EXPECT_EQ(d.only_cosim, 2u);
  EXPECT_DOUBLE_EQ(d.fraction(), 3.0 / 6.0);
  EXPECT_FALSE(d.identical());
  EXPECT_THROW(spike_divergence(a, {{1.0}}), std::invalid_argument);
}

// --- the snn::Simulator deferred seam itself ----------------------------

/// Pair assignment for Simulator::cut_remote_synapses: a synapse is cut
/// when its endpoints sit in different blocks, and each (pre, block of
/// post) gets its own pair id, numbered in synapse order.
struct PairAssignment {
  std::vector<std::uint32_t> pair_of_synapse;
  std::uint32_t pair_count = 0;
};

template <typename BlockOf>
PairAssignment pairs_by_block(const snn::Network& net, BlockOf block_of) {
  PairAssignment out;
  out.pair_of_synapse.assign(net.synapses().size(), snn::Simulator::kLocal);
  std::vector<std::vector<std::uint32_t>> ids(net.neuron_count());
  for (std::size_t s = 0; s < net.synapses().size(); ++s) {
    const snn::Synapse& syn = net.synapses()[s];
    const std::uint32_t block = block_of(syn.post);
    if (block_of(syn.pre) == block) continue;
    auto& row = ids[syn.pre];
    if (row.size() <= block) row.resize(block + 1, snn::Simulator::kLocal);
    if (row[block] == snn::Simulator::kLocal) row[block] = out.pair_count++;
    out.pair_of_synapse[s] = row[block];
  }
  return out;
}

PairAssignment two_block_pairs(const snn::Network& net) {
  return pairs_by_block(net, [](snn::NeuronId i) { return i < 24 ? 0u : 1u; });
}

TEST(DeferredSeam, AllDeliverVerdictsMatchInlineStepBitForBit) {
  // Even with cut synapses marked, a flush where every packet copy landed
  // in-window must reproduce the inline engine exactly.
  snn::Network inline_net = two_block_network();
  snn::SimulationConfig config;
  config.duration_ms = 150.0;
  config.seed = 4;
  snn::Simulator inline_sim(inline_net, config);
  const auto inline_result = inline_sim.run();

  snn::Network deferred_net = two_block_network();
  snn::Simulator deferred(deferred_net, config);
  const PairAssignment pairs = two_block_pairs(deferred_net);
  ASSERT_GT(pairs.pair_count, 0u);
  deferred.cut_remote_synapses(pairs.pair_of_synapse, pairs.pair_count);
  const std::vector<std::uint8_t> landed(pairs.pair_count, 1);
  for (int step = 0; step < 150; ++step) {
    deferred.step_deferred();
    deferred.flush_deferred(landed);
  }
  EXPECT_EQ(deferred.result().spikes, inline_result.spikes);
  EXPECT_EQ(deferred.total_spikes(), inline_result.total_spikes);
}

TEST(DeferredSeam, WithholdSuppressesExactlyTheCutDeliveries) {
  // No pair landing must equal simulating a network where the cut
  // synapses have zero weight.
  snn::Network zeroed = two_block_network();
  for (auto& s : zeroed.mutable_synapses()) {
    if ((s.pre < 24) != (s.post < 24)) s.weight = 0.0F;
  }
  snn::SimulationConfig config;
  config.duration_ms = 150.0;
  config.seed = 4;
  snn::Simulator zero_sim(zeroed, config);
  const auto zero_result = zero_sim.run();

  snn::Network net = two_block_network();
  snn::Simulator deferred(net, config);
  const PairAssignment pairs = two_block_pairs(net);
  deferred.cut_remote_synapses(pairs.pair_of_synapse, pairs.pair_count);
  const std::vector<std::uint8_t> landed(pairs.pair_count, 0);
  for (int step = 0; step < 150; ++step) {
    deferred.step_deferred();
    deferred.flush_deferred(landed);
  }
  EXPECT_EQ(deferred.result().spikes, zero_result.spikes);
}

/// Three LIF populations fed by a Poisson input, on three blocks by
/// neuron id mod 3, so every neuron's fan-out interleaves local records
/// with records of two pairs:
///   * in -> a (connect_full, one delay): contiguous fan-outs;
///   * a -> b (random, one delay): scattered fan-outs;
///   * b -> a (delay 3) and b -> c (delay 1): mixed-delay fan-outs;
///   * a -> c, plastic, only between neurons of one block: local plastic
///     slots among a's cut ones, for the STDP path.
snn::Network three_shape_network() {
  snn::Network net;
  util::Rng rng(17);
  const auto in = net.add_poisson_group("in", 9, 70.0);
  const auto a = net.add_lif_group("a", 12);
  const auto b = net.add_lif_group("b", 12);
  const auto c = net.add_lif_group("c", 9);
  net.connect_full(in, a, snn::WeightSpec::uniform(4.0, 7.0), rng);
  net.connect_random(a, b, 0.5, snn::WeightSpec::uniform(8.0, 12.0), rng,
                     /*delay=*/2);
  net.connect_random(b, a, 0.4, snn::WeightSpec::uniform(-4.0, -2.0), rng,
                     /*delay=*/3);
  net.connect_random(b, c, 0.5, snn::WeightSpec::uniform(9.0, 13.0), rng,
                     /*delay=*/1);
  for (snn::NeuronId pre = net.group(a).first; pre < net.group(a).last();
       ++pre) {
    for (snn::NeuronId post = net.group(c).first;
         post < net.group(c).last(); ++post) {
      if (pre % 3 == post % 3) {
        net.add_synapse(pre, post, 5.0, /*delay=*/2, /*plastic=*/true);
      }
    }
  }
  return net;
}

TEST(DeferredSeam, PartialLandingEqualsZeroingThoseCopiesSynapses) {
  // Odd pairs never land, even pairs always do: the run must equal the
  // network with exactly the odd pairs' synapses zeroed, on contiguous,
  // scattered and mixed-delay fan-outs, with STDP off and on.
  const auto block_of = [](snn::NeuronId i) { return i % 3; };
  for (const bool stdp : {false, true}) {
    SCOPED_TRACE(stdp ? "stdp on" : "stdp off");
    snn::SimulationConfig config;
    config.duration_ms = 200.0;
    config.seed = 8;
    config.enable_stdp = stdp;

    snn::Network net = three_shape_network();
    const PairAssignment pairs = pairs_by_block(net, block_of);
    ASSERT_GT(pairs.pair_count, 1u);
    std::vector<std::uint8_t> landed(pairs.pair_count);
    for (std::uint32_t p = 0; p < pairs.pair_count; ++p) {
      landed[p] = p % 2 == 0 ? 1 : 0;
    }
    snn::Simulator deferred(net, config);
    deferred.cut_remote_synapses(pairs.pair_of_synapse, pairs.pair_count);
    for (int step = 0; step < 200; ++step) {
      deferred.step_deferred();
      deferred.flush_deferred(landed);
    }

    snn::Network zeroed = three_shape_network();
    std::size_t withheld = 0;
    for (std::size_t s = 0; s < zeroed.synapses().size(); ++s) {
      const std::uint32_t pair = pairs.pair_of_synapse[s];
      if (pair != snn::Simulator::kLocal && landed[pair] == 0) {
        zeroed.mutable_synapses()[s].weight = 0.0F;
        ++withheld;
      }
    }
    ASSERT_GT(withheld, 0u);
    const auto expected = snn::Simulator(zeroed, config).run();

    EXPECT_GT(expected.total_spikes, 0u);
    EXPECT_EQ(deferred.total_spikes(), expected.total_spikes);
    EXPECT_EQ(deferred.result().spikes, expected.spikes);
    // Landed and local synapses, plastic ones included, end at the same
    // weights; only the withheld ones differ (zeroed in the reference).
    for (std::size_t s = 0; s < net.synapses().size(); ++s) {
      const std::uint32_t pair = pairs.pair_of_synapse[s];
      if (pair != snn::Simulator::kLocal && landed[pair] == 0) continue;
      EXPECT_EQ(net.synapses()[s].weight, zeroed.synapses()[s].weight)
          << "synapse " << s;
    }
  }
}

TEST(DeferredSeam, InjectRemoteFiresAQuietNeuron) {
  // One silent LIF neuron; a strong injected arrival must fire it exactly
  // `delay` steps after the open step.
  snn::Network net;
  net.add_lif_group("only", 1);
  net.add_synapse(0, 0, 0.0, /*delay=*/4);  // sizes the delay ring
  snn::SimulationConfig config;
  config.duration_ms = 10.0;
  snn::Simulator sim(net, config);

  sim.step_deferred();  // step 0 open
  sim.inject_remote(0, 60.0, 3);
  sim.flush_deferred({});
  for (int step = 1; step < 10; ++step) {
    sim.step_deferred();
    sim.flush_deferred({});
  }
  const auto spikes = sim.spikes();
  ASSERT_EQ(spikes[0].size(), 1u);
  // Arrival at step 0 + 3 fires during that step; the spike is stamped
  // with the step's start time.
  EXPECT_DOUBLE_EQ(spikes[0][0], 3.0);
}

TEST(DeferredSeam, GuardsMisuse) {
  snn::Network net = two_block_network();
  snn::SimulationConfig config;
  snn::Simulator sim(net, config);
  const std::vector<std::uint32_t> all_local(net.synapses().size(),
                                             snn::Simulator::kLocal);
  // Flush without an open step.
  EXPECT_THROW(sim.flush_deferred({}), std::logic_error);
  // inject_remote outside an open step.
  EXPECT_THROW(sim.inject_remote(0, 1.0, 1), std::logic_error);
  // Wrong assignment size.
  EXPECT_THROW(sim.cut_remote_synapses({0, snn::Simulator::kLocal}, 1),
               std::invalid_argument);
  // A pair id at or past pair_count.
  std::vector<std::uint32_t> out_of_range = all_local;
  out_of_range[0] = 2;
  EXPECT_THROW(sim.cut_remote_synapses(out_of_range, 2),
               std::invalid_argument);
  const PairAssignment pairs = two_block_pairs(net);
  sim.cut_remote_synapses(pairs.pair_of_synapse, pairs.pair_count);

  sim.step_deferred();
  // step()/step_deferred() while a step is open.
  EXPECT_THROW(sim.step(), std::logic_error);
  EXPECT_THROW(sim.step_deferred(), std::logic_error);
  // Bad inject delays.
  EXPECT_THROW(sim.inject_remote(0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(sim.inject_remote(0, 1.0, 200), std::invalid_argument);
  EXPECT_THROW(sim.inject_remote(net.neuron_count(), 1.0, 1),
               std::out_of_range);
  // Landed-flag count mismatch: one flag short, one too many.
  EXPECT_THROW(sim.flush_deferred(
                   std::vector<std::uint8_t>(pairs.pair_count - 1, 1)),
               std::invalid_argument);
  EXPECT_THROW(sim.flush_deferred(
                   std::vector<std::uint8_t>(pairs.pair_count + 1, 1)),
               std::invalid_argument);
  // Cutting with a deferred step open is rejected (its spikes were
  // recorded under the old pairs)...
  EXPECT_THROW(sim.cut_remote_synapses(all_local, 0), std::logic_error);
  // ...but re-cutting between closed steps is legal (the remap-on-failure
  // path re-cuts mid-run after an evacuation), and the flush then expects
  // the new pair count.
  sim.flush_deferred(std::vector<std::uint8_t>(pairs.pair_count, 1));
  EXPECT_NO_THROW(sim.cut_remote_synapses(all_local, 0));
  sim.step_deferred();
  EXPECT_THROW(sim.flush_deferred(
                   std::vector<std::uint8_t>(pairs.pair_count, 1)),
               std::invalid_argument);
  EXPECT_NO_THROW(sim.flush_deferred({}));
}

}  // namespace
}  // namespace snnmap::cosim
