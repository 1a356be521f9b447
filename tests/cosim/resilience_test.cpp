// Resilience-path tests: AER retry protocol validation and recovery,
// timeout loss accounting under permanent faults, remap-on-failure graceful
// degradation, and bit-exact determinism of fully-faulted closed-loop runs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/partition.hpp"
#include "core/placement.hpp"
#include "cosim/cosim.hpp"
#include "cosim/fidelity.hpp"
#include "hw/architecture.hpp"
#include "noc/faults.hpp"
#include "noc/topology.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "util/rng.hpp"

namespace snnmap::cosim {
namespace {

/// Two Poisson-driven LIF populations wired across both directions (the
/// cosim_test.cpp fixture): in + a on crossbar 0, b on crossbar 1.
snn::Network two_block_network(std::uint64_t wiring_seed = 5) {
  snn::Network net;
  util::Rng rng(wiring_seed);
  const auto in = net.add_poisson_group("in", 12, 60.0);
  const auto a = net.add_lif_group("a", 12);
  const auto b = net.add_lif_group("b", 12);
  net.connect_random(in, a, 0.7, snn::WeightSpec::uniform(9.0, 14.0), rng);
  net.connect_random(a, b, 0.5, snn::WeightSpec::uniform(8.0, 12.0), rng,
                     /*delay=*/2);
  net.connect_random(b, a, 0.4, snn::WeightSpec::uniform(-4.0, -2.0), rng,
                     /*delay=*/3);
  return net;
}

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

TEST(AerRetry, RejectsDegenerateRetryConfigs) {
  snn::Network net = two_block_network();
  const auto partition = two_block_partition(net);
  const auto placement = core::identity_placement(2, noc::Topology::ring(2));
  for (int field = 0; field < 2; ++field) {
    auto config = base_config();
    config.retry.enabled = true;
    if (field == 0) config.retry.max_retries = 0;
    if (field == 1) config.retry.timeout_windows = 0;
    EXPECT_THROW(CoSimulator(net, partition, placement,
                             noc::Topology::ring(2), config),
                 std::invalid_argument)
        << field;
  }
  // The same zeros are fine while the protocol is disabled.
  auto config = base_config();
  config.retry.max_retries = 0;
  EXPECT_NO_THROW(CoSimulator(net, partition, placement,
                              noc::Topology::ring(2), config));
}

TEST(AerRetry, DisabledProtocolReportsNothing) {
  const CoSimResult result = run_two_block(base_config());
  EXPECT_EQ(result.resilience.retransmit_packets, 0u);
  EXPECT_EQ(result.resilience.spikes_lost_timeout, 0u);
  EXPECT_EQ(result.resilience.pending_at_end, 0u);
  EXPECT_FALSE(result.resilience.any());
}

TEST(AerRetry, RecoversFlitDropLosses) {
  // A lossy fabric without retry loses synaptic deliveries for good; with
  // the retry protocol nearly all of them are retransmitted and recovered.
  auto lossy = base_config();
  lossy.noc.faults.seed = 21;
  lossy.noc.faults.flit_drop_probability = 0.2;

  const CoSimResult no_retry = run_two_block(lossy);
  ASSERT_GT(no_retry.resilience.noc_faults.flits_dropped, 0u);
  ASSERT_GT(no_retry.fidelity.undelivered, 0u);

  auto with_retry = lossy;
  with_retry.retry.enabled = true;
  with_retry.retry.max_retries = 10;
  with_retry.retry.timeout_windows = 60;
  const CoSimResult retried = run_two_block(with_retry);
  const ResilienceReport& rs = retried.resilience;
  EXPECT_GT(rs.retransmit_packets, 0u);
  EXPECT_GE(rs.retransmit_copies, rs.retransmit_packets);
  EXPECT_GT(rs.retry_recoveries, 0u);
  // Source-side retry energy is priced per retransmitted packet
  // (accumulated sum, so allow FP addition noise).
  EXPECT_NEAR(rs.retransmit_energy_pj,
              static_cast<double>(rs.retransmit_packets) *
                  with_retry.noc.energy.retransmit_pj,
              1e-6);
  // Ten attempts against a 20% drop rate: losing a delivery outright is a
  // ~2e-8 event, so the timeout path stays untouched.
  EXPECT_EQ(rs.spikes_lost_timeout, 0u);
  // Permanent losses with retry (abandoned + still open at run end) stay
  // far below the drop-only run's losses.  fidelity.undelivered is not the
  // comparison: retransmit copies inflate `offered` there by design.
  EXPECT_LT(rs.spikes_lost_timeout + rs.pending_at_end,
            no_retry.fidelity.undelivered);
}

TEST(AerRetry, PermanentTileFaultExhaustsRetriesAndCompletes) {
  // Crossbar b's tile dies mid-run and never heals: every subsequent a->b
  // delivery fails all its retransmits and is abandoned after
  // timeout_windows, with the loss accounted — the run itself completes.
  auto config = base_config();
  noc::ScheduledFault f;
  f.kind = noc::ScheduledFault::Kind::kTile;
  f.tile = 1;
  f.start_cycle = 100 * config.cycles_per_timestep;
  config.noc.faults.scheduled.push_back(f);
  config.retry.enabled = true;
  config.retry.max_retries = 3;
  config.retry.timeout_windows = 8;

  const CoSimResult result = run_two_block(config);
  const ResilienceReport& rs = result.resilience;
  EXPECT_EQ(rs.noc_faults.tile_faults, 1u);
  EXPECT_GT(rs.noc_faults.copies_lost(), 0u);
  EXPECT_GT(rs.retransmit_packets, 0u);
  EXPECT_GT(rs.spikes_lost_timeout, 0u);
  EXPECT_TRUE(rs.any());
  // The loss is visible in the fidelity accounting too.
  EXPECT_GT(result.fidelity.undelivered, 0u);
}

/// Four 12-neuron populations on four 16-capacity crossbars (slack for a
/// full evacuation), excitatory chain in -> a -> b -> c -> a.
struct RemapScenario {
  snn::Network net;
  core::Partition partition{48, 4};
  noc::Topology topology = noc::Topology::mesh(2, 2);
  core::Placement placement;
  hw::Architecture arch;

  RemapScenario() {
    util::Rng rng(13);
    const auto in = net.add_poisson_group("in", 12, 80.0);
    const auto a = net.add_lif_group("a", 12);
    const auto b = net.add_lif_group("b", 12);
    const auto c = net.add_lif_group("c", 12);
    net.connect_random(in, a, 0.7, snn::WeightSpec::uniform(9.0, 14.0), rng);
    net.connect_random(a, b, 0.5, snn::WeightSpec::uniform(8.0, 12.0), rng,
                       /*delay=*/2);
    net.connect_random(b, c, 0.5, snn::WeightSpec::uniform(8.0, 12.0), rng,
                       /*delay=*/2);
    net.connect_random(c, a, 0.3, snn::WeightSpec::uniform(-4.0, -2.0), rng,
                       /*delay=*/3);
    for (snn::NeuronId i = 0; i < 48; ++i) partition.assign(i, i / 12);
    placement = core::identity_placement(4, topology);
    arch.crossbar_count = 4;
    arch.neurons_per_crossbar = 16;
    arch.interconnect = hw::InterconnectKind::kMesh;
  }
};

CoSimConfig remap_config(bool remap_on, const hw::Architecture& arch) {
  CoSimConfig config;
  config.snn.duration_ms = 300.0;
  config.snn.seed = 17;
  config.cycles_per_timestep = 1000;
  // Kill crossbar a's tile a third into the run.
  noc::ScheduledFault f;
  f.kind = noc::ScheduledFault::Kind::kTile;
  f.tile = 1;
  f.start_cycle = 100 * config.cycles_per_timestep;
  config.noc.faults.scheduled.push_back(f);
  config.failure_remap.enabled = remap_on;
  config.failure_remap.arch = arch;
  return config;
}

TEST(RemapOnFailure, EvacuatesDeadCrossbarIntoSlack) {
  RemapScenario s;
  CoSimulator sim(s.net, s.partition, s.placement, s.topology,
                  remap_config(true, s.arch));
  const CoSimResult result = sim.run();
  const ResilienceReport& rs = result.resilience;
  EXPECT_EQ(rs.noc_faults.tile_faults, 1u);
  EXPECT_EQ(rs.remap_events, 1u);
  // All 12 neurons of the dead crossbar fit the 3 x 4 slots of slack.
  EXPECT_EQ(rs.neurons_migrated, 12u);
  EXPECT_EQ(rs.neurons_stranded, 0u);
}

TEST(RemapOnFailure, ReducesPostFaultDivergence) {
  // The acceptance check: against the same ideal-interconnect reference,
  // the remapped run diverges measurably less than the one that keeps
  // sourcing/sinking spikes on dead hardware.
  RemapScenario ideal_s;
  snn::Simulator ideal(ideal_s.net, remap_config(false, ideal_s.arch).snn);
  const auto reference = ideal.run();

  RemapScenario no_remap_s;
  CoSimulator no_remap(no_remap_s.net, no_remap_s.partition,
                       no_remap_s.placement, no_remap_s.topology,
                       remap_config(false, no_remap_s.arch));
  const CoSimResult degraded = no_remap.run();

  RemapScenario remap_s;
  CoSimulator remapped(remap_s.net, remap_s.partition, remap_s.placement,
                       remap_s.topology, remap_config(true, remap_s.arch));
  const CoSimResult healed = remapped.run();

  const SpikeDivergence div_degraded =
      spike_divergence(reference.spikes, degraded.snn.spikes);
  const SpikeDivergence div_healed =
      spike_divergence(reference.spikes, healed.snn.spikes);
  // The fault costs both runs fidelity, but evacuation restores the spike
  // flow while the degraded run starves a whole population.
  EXPECT_GT(div_degraded.fraction(), 0.0);
  EXPECT_LT(div_healed.fraction(), div_degraded.fraction());
}

TEST(Resilience, FaultedClosedLoopRunsAreBitIdentical) {
  // Random faults + drops + retry + remap, twice: identical spike trains
  // and identical resilience counters (the whole fault path is seeded).
  auto make_config = [] {
    RemapScenario s;
    CoSimConfig config = remap_config(true, s.arch);
    config.noc.faults.seed = 31;
    config.noc.faults.flit_drop_probability = 0.1;
    config.retry.enabled = true;
    return config;
  };
  auto run_once = [&] {
    RemapScenario s;
    CoSimulator sim(s.net, s.partition, s.placement, s.topology,
                    make_config());
    return sim.run();
  };
  const CoSimResult a = run_once();
  const CoSimResult b = run_once();

  EXPECT_EQ(a.snn.spikes, b.snn.spikes);  // exact per-neuron spike times
  EXPECT_EQ(a.resilience.noc_faults.flits_dropped,
            b.resilience.noc_faults.flits_dropped);
  EXPECT_EQ(a.resilience.retransmit_packets,
            b.resilience.retransmit_packets);
  EXPECT_EQ(a.resilience.retry_recoveries, b.resilience.retry_recoveries);
  EXPECT_EQ(a.resilience.spikes_lost_timeout,
            b.resilience.spikes_lost_timeout);
  EXPECT_EQ(a.resilience.neurons_migrated, b.resilience.neurons_migrated);
  EXPECT_EQ(a.fidelity.copies_arrived, b.fidelity.copies_arrived);
  EXPECT_EQ(a.fidelity.fabric_energy_pj, b.fidelity.fabric_energy_pj);
}

TEST(Resilience, FaultFreeRunMatchesPreFaultSubsystemExactly) {
  // A config with the resilience features compiled in but inert (no
  // faults, retry/remap off) must reproduce the plain run bit for bit.
  const CoSimResult plain = run_two_block(base_config());
  auto gated = base_config();
  gated.noc.faults = noc::FaultConfig{};
  gated.retry = AerRetryConfig{};
  const CoSimResult same = run_two_block(gated);
  EXPECT_EQ(plain.snn.spikes, same.snn.spikes);
  EXPECT_EQ(plain.fidelity.copies_arrived, same.fidelity.copies_arrived);
  EXPECT_EQ(plain.fidelity.fabric_energy_pj, same.fidelity.fabric_energy_pj);
  EXPECT_FALSE(same.resilience.any());
}

}  // namespace
}  // namespace snnmap::cosim
