// Windowed energy accounting + DVFS fabric scaling in the co-simulator.
//
// The load-bearing invariant: with DvfsPolicy fixed, the per-window energy
// accounting reproduces the one-shot NocStats::global_energy_pj *bit for
// bit* on every SNN golden scenario (ideal and congested budgets alike) —
// window boundaries and frequency bookkeeping must never change what a run
// costs, only how it is attributed.  On top of that sit the policies:
// utilization-threshold and deadline-slack rescale the per-window cycle
// budget, trading transit stretch for quadratic per-event energy savings,
// deterministically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "../snn/golden_scenarios.hpp"
#include "core/partition.hpp"
#include "core/placement.hpp"
#include "cosim/cosim.hpp"
#include "cosim/fidelity.hpp"
#include "noc/topology.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "test_mappings.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace snnmap::cosim {
namespace {

using test::plastic_safe_partition;

/// Runs one golden scenario through the closed loop under `config` (the
/// same mapping recipe the ideal-equivalence test uses).
CoSimResult run_golden(const snn::golden::Scenario& scenario,
                       CoSimConfig config) {
  snn::Network net = scenario.build();
  const core::Partition partition = plastic_safe_partition(net);
  noc::Topology topology =
      noc::Topology::tree(partition.crossbar_count(), 4);
  const core::Placement placement =
      core::identity_placement(partition.crossbar_count(), topology);
  config.snn = scenario.config;
  CoSimulator cosim(net, partition, placement, std::move(topology), config);
  return cosim.run();
}

TEST(CoSimWindowEnergy, FixedPolicySumsBitIdenticalOnAllGoldenScenarios) {
  // Both an ideal budget (every window drains) and a congested one (flits
  // carry across windows, some runs never drain): the per-window activity
  // deltas must sum to exactly the session counters, so the scale-weighted
  // accumulators reproduce the one-shot energy bit for bit.
  std::size_t scenarios_with_traffic = 0;
  for (const std::uint32_t budget : {1u << 15, 8u}) {
    for (const auto& scenario : snn::golden::scenarios()) {
      SCOPED_TRACE(scenario.name + " @" + std::to_string(budget));
      CoSimConfig config;
      config.cycles_per_timestep = budget;
      const CoSimResult result = run_golden(scenario, config);
      const FidelityReport& fid = result.fidelity;

      EXPECT_EQ(fid.fabric_energy_pj, result.noc.global_energy_pj);
      if (fid.packets_offered > 0) ++scenarios_with_traffic;

      // The trajectory really was fixed...
      ASSERT_EQ(fid.per_step_cycles.size(), fid.steps);
      for (const std::uint32_t c : fid.per_step_cycles) {
        EXPECT_EQ(c, budget);
      }
      EXPECT_EQ(fid.freq_scale.count(), fid.steps);
      EXPECT_DOUBLE_EQ(fid.freq_scale.mean(), 1.0);
      // ...and the per-window samples are internally consistent.
      EXPECT_EQ(fid.per_step_energy_pj.size(), fid.steps);
      EXPECT_EQ(fid.window_energy_pj.count(), fid.steps);
      EXPECT_EQ(fid.window_busy_cycles.count(), fid.steps);
      EXPECT_EQ(fid.window_peak_link_flits.count(), fid.steps);
      if (fid.steps > 0) {
        // A window cannot be busy for longer than it ran, and no window's
        // hottest link carries more than that link's session total.
        EXPECT_LE(fid.window_busy_cycles.max(), static_cast<double>(budget));
        EXPECT_LE(fid.window_busy_cycles.sum(),
                  static_cast<double>(result.noc.duration_cycles));
        EXPECT_LE(fid.window_peak_link_flits.max(),
                  static_cast<double>(result.noc.max_link_flits()));
      }
      EXPECT_EQ(fid.per_step_energy_pj.size(), fid.steps);
      double sum = 0.0;
      for (const double e : fid.per_step_energy_pj) sum += e;
      if (fid.fabric_energy_pj > 0.0) {
        EXPECT_NEAR(sum, fid.fabric_energy_pj,
                    1e-9 * fid.fabric_energy_pj);
      } else {
        EXPECT_EQ(sum, 0.0);
      }
    }
  }
  // The property is vacuous unless the mappings actually ship spikes.
  EXPECT_GE(scenarios_with_traffic, 16u);
}

/// Two Poisson-driven LIF populations wired across both directions (the
/// cosim_test workload): light traffic, so a generous nominal budget
/// leaves the fabric mostly idle — the DVFS head-room scenario.
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

CoSimResult run_two_block(CoSimConfig config) {
  snn::Network net = two_block_network();
  core::Partition partition(net.neuron_count(), 2);
  for (snn::NeuronId i = 0; i < net.neuron_count(); ++i) {
    partition.assign(i, i < 24 ? 0 : 1);
  }
  noc::Topology topology = noc::Topology::ring(2);
  const auto placement = core::identity_placement(2, topology);
  config.snn.duration_ms = 200.0;
  config.snn.seed = 9;
  CoSimulator sim(net, partition, placement, std::move(topology), config);
  return sim.run();
}

CoSimConfig dvfs_config(DvfsPolicyKind kind,
                        std::uint32_t cpt = 2048) {
  CoSimConfig config;
  config.cycles_per_timestep = cpt;
  config.dvfs.kind = kind;
  return config;
}

TEST(CoSimDvfs, UtilizationPolicySlowsAnIdleFabricAndSavesEnergy) {
  const auto fixed = run_two_block(dvfs_config(DvfsPolicyKind::kFixed));
  const auto scaled =
      run_two_block(dvfs_config(DvfsPolicyKind::kUtilizationThreshold));

  // A 2048-cycle window for a handful of 1-hop packets is almost all
  // idle: the policy must ratchet down to the floor and stay there.
  EXPECT_LT(scaled.fidelity.freq_scale.mean(), 0.5);
  EXPECT_DOUBLE_EQ(scaled.fidelity.freq_scale.min(), 0.25);
  // First window always runs nominal (nothing observed yet).
  EXPECT_EQ(scaled.fidelity.per_step_cycles.front(), 2048u);
  EXPECT_EQ(scaled.fidelity.per_step_cycles.back(), 512u);  // 2048 * 0.25

  // Same spikes, same activity — but every event priced at the scaled
  // frequency: quadratic savings.
  EXPECT_GT(fixed.fidelity.fabric_energy_pj, 0.0);
  EXPECT_LT(scaled.fidelity.fabric_energy_pj,
            0.5 * fixed.fidelity.fabric_energy_pj);

  // Bounded divergence: a 512-cycle floor still delivers every packet
  // within its window on this workload, so the dynamics are untouched.
  EXPECT_EQ(scaled.fidelity.deadline_misses, 0u);
  snn::Network reference = two_block_network();
  auto snn_config = dvfs_config(DvfsPolicyKind::kFixed).snn;
  snn_config.duration_ms = 200.0;
  snn_config.seed = 9;
  const auto ideal = snn::Simulator(reference, snn_config).run();
  EXPECT_TRUE(spike_divergence(ideal.spikes, scaled.snn.spikes).identical());
  // Lower energy at equal-ish delay: the energy-delay product improves.
  EXPECT_LT(scaled.fidelity.energy_delay_product(),
            fixed.fidelity.energy_delay_product());
}

TEST(CoSimDvfs, DeadlineSlackSlowsOnSlackAndSnapsBackUnderPressure) {
  // Generous budget: plenty of slack, the policy ratchets down.
  const auto slack =
      run_two_block(dvfs_config(DvfsPolicyKind::kDeadlineSlack));
  EXPECT_LT(slack.fidelity.freq_scale.mean(), 1.0);
  EXPECT_DOUBLE_EQ(slack.fidelity.freq_scale.min(), 0.25);

  // Congested budget: once traffic flows, every window misses deadlines
  // or carries backlog, so any early slow-down (quiet lead-in windows)
  // must snap back to nominal and stay pinned there under pressure.
  const auto congested =
      run_two_block(dvfs_config(DvfsPolicyKind::kDeadlineSlack, /*cpt=*/2));
  EXPECT_GT(congested.fidelity.deadline_misses +
                congested.fidelity.undelivered,
            0u);
  const auto& cycles = congested.fidelity.per_step_cycles;
  bool slowed = false;
  bool snapped_back = false;
  for (const std::uint32_t c : cycles) {
    if (c < 2) slowed = true;
    if (slowed && c == 2) snapped_back = true;
  }
  EXPECT_TRUE(slowed);        // quiet lead-in windows ratcheted down
  EXPECT_TRUE(snapped_back);  // pressure forced nominal again
  // Under sustained pressure the policy holds nominal: the trajectory's
  // tail is all nominal-frequency windows.
  EXPECT_EQ(cycles.back(), 2u);
}

TEST(CoSimDvfs, WindowsNeverShrinkBelowTheJitterSpan) {
  auto config = dvfs_config(DvfsPolicyKind::kUtilizationThreshold);
  config.dvfs.min_scale = 1.0 / 1024.0;  // would round to 2 cycles
  config.injection_jitter_cycles = 64;
  const auto result = run_two_block(config);
  for (const std::uint32_t c : result.fidelity.per_step_cycles) {
    EXPECT_GE(c, 65u);  // jitter + 1: a spike lands inside its own window
  }
}

TEST(CoSimDvfs, ValidatesPolicyParameters) {
  const auto reject = [](DvfsPolicy dvfs) {
    CoSimConfig config;
    config.dvfs = dvfs;
    EXPECT_THROW(run_two_block(config), std::invalid_argument);
  };
  DvfsPolicy bad;
  bad.min_scale = 0.0;
  reject(bad);
  bad = DvfsPolicy{};
  bad.min_scale = 1.5;
  reject(bad);
  bad = DvfsPolicy{};
  bad.min_scale = std::numeric_limits<double>::quiet_NaN();
  reject(bad);
}

TEST(CoSimDvfs, PolicyNamesRoundTrip) {
  for (const auto kind :
       {DvfsPolicyKind::kFixed, DvfsPolicyKind::kUtilizationThreshold,
        DvfsPolicyKind::kDeadlineSlack}) {
    EXPECT_EQ(dvfs_policy_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(dvfs_policy_from_string("race-to-idle"),
               std::invalid_argument);
}

TEST(CoSimDvfs, BatchDvfsSweepMatchesStandaloneRuns) {
  std::vector<DvfsPolicy> policies(3);
  policies[0].kind = DvfsPolicyKind::kFixed;
  policies[1].kind = DvfsPolicyKind::kUtilizationThreshold;
  policies[2].kind = DvfsPolicyKind::kDeadlineSlack;
  const auto config_for = [&policies](std::size_t i) {
    CoSimConfig config = dvfs_config(DvfsPolicyKind::kFixed);
    config.dvfs = policies[i];
    return config;
  };

  util::ThreadPool pool(4);
  const auto outcomes = pool.map(policies.size(), [&](std::size_t i) {
    return run_two_block(config_for(i));
  });
  ASSERT_EQ(outcomes.size(), policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto standalone = run_two_block(config_for(i));
    EXPECT_EQ(outcomes[i].fidelity.fabric_energy_pj,
              standalone.fidelity.fabric_energy_pj)
        << i;
    EXPECT_EQ(outcomes[i].fidelity.per_step_cycles,
              standalone.fidelity.per_step_cycles)
        << i;
    EXPECT_EQ(outcomes[i].snn.spikes, standalone.snn.spikes) << i;
  }
  // The sweep actually explored the frontier: a scaling policy must have
  // spent less than fixed.
  EXPECT_LT(outcomes[1].fidelity.fabric_energy_pj,
            outcomes[0].fidelity.fabric_energy_pj);
}

TEST(CoSimWindowEnergy, EventEngineBitIdenticalThroughClosedLoop) {
  // The NoC engine knob flows through CoSimConfig::noc into the lockstep
  // loop.  A generous cycle budget makes most of every window a stall span
  // the event engine skips while the cycle oracle grinds through it — yet
  // the windows' busy_cycles (and therefore the utilization-threshold DVFS
  // trajectory), the per-step energy attribution, and the spike dynamics
  // must be bit-identical: the closed loop cannot observe which scheduling
  // core ran the fabric.
  for (const auto& scenario : snn::golden::scenarios()) {
    SCOPED_TRACE(scenario.name);
    CoSimConfig config;
    config.cycles_per_timestep = 1u << 14;
    config.dvfs.kind = DvfsPolicyKind::kUtilizationThreshold;
    config.noc.engine = noc::NocEngine::kCycle;
    const CoSimResult oracle = run_golden(scenario, config);
    config.noc.engine = noc::NocEngine::kEvent;
    const CoSimResult evt = run_golden(scenario, config);

    EXPECT_EQ(evt.fidelity.per_step_cycles, oracle.fidelity.per_step_cycles);
    EXPECT_EQ(evt.fidelity.freq_scale.count(),
              oracle.fidelity.freq_scale.count());
    EXPECT_EQ(evt.fidelity.freq_scale.mean(),
              oracle.fidelity.freq_scale.mean());
    EXPECT_EQ(evt.fidelity.window_busy_cycles.count(),
              oracle.fidelity.window_busy_cycles.count());
    EXPECT_EQ(evt.fidelity.window_busy_cycles.sum(),
              oracle.fidelity.window_busy_cycles.sum());
    EXPECT_EQ(evt.fidelity.window_busy_cycles.max(),
              oracle.fidelity.window_busy_cycles.max());
    EXPECT_EQ(evt.fidelity.window_peak_link_flits.count(),
              oracle.fidelity.window_peak_link_flits.count());
    EXPECT_EQ(evt.fidelity.window_peak_link_flits.sum(),
              oracle.fidelity.window_peak_link_flits.sum());
    EXPECT_EQ(evt.fidelity.window_peak_link_flits.max(),
              oracle.fidelity.window_peak_link_flits.max());
    EXPECT_EQ(evt.fidelity.fabric_energy_pj,
              oracle.fidelity.fabric_energy_pj);
    EXPECT_EQ(evt.fidelity.per_step_energy_pj,
              oracle.fidelity.per_step_energy_pj);
    EXPECT_EQ(evt.noc.copies_delivered, oracle.noc.copies_delivered);
    EXPECT_EQ(evt.noc.duration_cycles, oracle.noc.duration_cycles);
    EXPECT_EQ(evt.noc.link_hops, oracle.noc.link_hops);
    EXPECT_EQ(evt.snn.spikes, oracle.snn.spikes);
  }
}

}  // namespace
}  // namespace snnmap::cosim
