#include "snn/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "snn/graph.hpp"
#include "snn/spike_train.hpp"

namespace snnmap::snn {
namespace {

TEST(Simulator, PoissonGroupFiresAtConfiguredRate) {
  Network net;
  net.add_poisson_group("in", 50, 40.0);
  SimulationConfig cfg;
  cfg.duration_ms = 5000.0;
  cfg.seed = 3;
  Simulator sim(net, cfg);
  const auto result = sim.run();
  EXPECT_NEAR(result.mean_rate_hz(), 40.0, 2.0);
}

TEST(Simulator, RateFunctionOverridesBaseline) {
  Network net;
  const auto g = net.add_poisson_group("in", 2, 100.0);
  net.set_rate_function(g, [](std::uint32_t local, double) {
    return local == 0 ? 0.0 : 80.0;
  });
  SimulationConfig cfg;
  cfg.duration_ms = 5000.0;
  Simulator sim(net, cfg);
  const auto result = sim.run();
  EXPECT_TRUE(result.spikes[0].empty());
  EXPECT_NEAR(mean_rate_hz(result.spikes[1], 5000.0), 80.0, 10.0);
}

TEST(Simulator, SpikesArriveAfterConfiguredDelay) {
  // A Poisson source driving a LIF neuron through a strong synapse with a
  // 5-step delay: every post spike must trail a pre spike by >= 5 ms.
  Network net;
  const auto in = net.add_poisson_group("in", 1, 50.0);
  const auto out = net.add_lif_group("out", 1);
  util::Rng rng(1);
  net.connect_one_to_one(in, out, WeightSpec::fixed(30.0), rng, /*delay=*/5);
  SimulationConfig cfg;
  cfg.duration_ms = 2000.0;
  cfg.seed = 5;
  Simulator sim(net, cfg);
  const auto result = sim.run();
  ASSERT_FALSE(result.spikes[0].empty());
  ASSERT_FALSE(result.spikes[1].empty());
  // First output spike cannot precede first input spike + 5 ms.
  EXPECT_GE(result.spikes[1].front(), result.spikes[0].front() + 5.0);
}

TEST(Simulator, StrongOneToOneDriveRelaysRate) {
  Network net;
  const auto in = net.add_poisson_group("in", 20, 30.0);
  const auto out = net.add_lif_group("out", 20);
  util::Rng rng(2);
  // One spike delivers R*w = 450 mV of drive over tau: well above threshold.
  net.connect_one_to_one(in, out, WeightSpec::fixed(45.0), rng);
  SimulationConfig cfg;
  cfg.duration_ms = 4000.0;
  cfg.seed = 7;
  Simulator sim(net, cfg);
  const auto result = sim.run();
  double in_rate = 0.0;
  double out_rate = 0.0;
  for (std::uint32_t i = 0; i < 20; ++i) {
    in_rate += mean_rate_hz(result.spikes[net.group(in).first + i], 4000.0);
    out_rate += mean_rate_hz(result.spikes[net.group(out).first + i], 4000.0);
  }
  in_rate /= 20.0;
  out_rate /= 20.0;
  // The relay should fire at a comparable (not wildly different) rate.
  EXPECT_GT(out_rate, 0.5 * in_rate);
  EXPECT_LT(out_rate, 2.0 * in_rate);
}

TEST(Simulator, InhibitionSuppressesFiring) {
  Network net;
  const auto in = net.add_poisson_group("in", 1, 200.0);
  const auto exc_target = net.add_lif_group("t1", 1);
  const auto inh_target = net.add_lif_group("t2", 1);
  util::Rng rng(3);
  net.connect_one_to_one(in, exc_target, WeightSpec::fixed(40.0), rng);
  net.connect_one_to_one(in, inh_target, WeightSpec::fixed(40.0), rng);
  // Dense inhibitory bombardment onto t2 from a second source.
  const auto inh_src = net.add_poisson_group("inh", 1, 400.0);
  net.add_synapse(net.group(inh_src).first, net.group(inh_target).first,
                  -40.0);
  SimulationConfig cfg;
  cfg.duration_ms = 3000.0;
  cfg.seed = 11;
  Simulator sim(net, cfg);
  const auto result = sim.run();
  EXPECT_LT(result.spikes[net.group(inh_target).first].size(),
            result.spikes[net.group(exc_target).first].size());
}

TEST(Simulator, SpikesAreRecordedSorted) {
  Network net;
  net.add_poisson_group("in", 10, 60.0);
  SimulationConfig cfg;
  cfg.duration_ms = 1000.0;
  Simulator sim(net, cfg);
  const auto result = sim.run();
  for (const auto& train : result.spikes) {
    EXPECT_TRUE(is_valid_train(train));
  }
  EXPECT_DOUBLE_EQ(result.duration_ms, 1000.0);
}

TEST(Simulator, DeterministicForSameSeed) {
  const auto run_once = [] {
    Network net;
    const auto in = net.add_poisson_group("in", 5, 50.0);
    const auto out = net.add_izhikevich_group("out", 5);
    util::Rng rng(1);
    net.connect_full(in, out, WeightSpec::fixed(5.0), rng);
    SimulationConfig cfg;
    cfg.duration_ms = 500.0;
    cfg.seed = 99;
    Simulator sim(net, cfg);
    return sim.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.total_spikes, b.total_spikes);
  EXPECT_EQ(a.spikes, b.spikes);
}

TEST(Simulator, StdpPotentiatesCausalPathway) {
  // Pre drives post strongly; with STDP enabled the plastic weight of the
  // causal pre->post synapse should grow.
  Network net;
  const auto in = net.add_poisson_group("in", 1, 80.0);
  const auto out = net.add_lif_group("out", 1);
  util::Rng rng(4);
  net.connect_one_to_one(in, out, WeightSpec::fixed(20.0), rng, 1,
                         /*plastic=*/true);
  const float w_before = net.synapses()[0].weight;
  SimulationConfig cfg;
  cfg.duration_ms = 3000.0;
  cfg.seed = 13;
  cfg.enable_stdp = true;
  cfg.stdp.w_max = 40.0;
  // Potentiation-dominant window: the pathway is strictly causal (pre drives
  // post), so with a_plus > a_minus the weight must grow.
  cfg.stdp.a_plus = 0.05;
  cfg.stdp.a_minus = 0.005;
  Simulator sim(net, cfg);
  sim.run();
  EXPECT_GT(net.synapses()[0].weight, w_before);
}

TEST(Simulator, StdpDisabledKeepsWeights) {
  Network net;
  const auto in = net.add_poisson_group("in", 1, 80.0);
  const auto out = net.add_lif_group("out", 1);
  util::Rng rng(4);
  net.connect_one_to_one(in, out, WeightSpec::fixed(20.0), rng, 1,
                         /*plastic=*/true);
  SimulationConfig cfg;
  cfg.duration_ms = 1000.0;
  cfg.enable_stdp = false;
  Simulator sim(net, cfg);
  sim.run();
  EXPECT_FLOAT_EQ(net.synapses()[0].weight, 20.0F);
}

TEST(Simulator, ExponentialSynapsesSumTemporally) {
  // A weight just below the instantaneous threshold cannot fire a LIF
  // neuron with delta synapses, but with a slow synaptic time constant the
  // decaying currents of successive spikes summate and eventually fire it.
  const auto run_with_tau = [](double tau) {
    Network net;
    const auto in = net.add_poisson_group("in", 1, 100.0);
    const auto out = net.add_lif_group("out", 1);
    util::Rng rng(1);
    net.connect_one_to_one(in, out, WeightSpec::fixed(10.0), rng);
    SimulationConfig cfg;
    cfg.duration_ms = 2000.0;
    cfg.seed = 21;
    cfg.syn_tau_ms = tau;
    Simulator sim(net, cfg);
    const auto result = sim.run();
    return result.spikes[net.group(out).first].size();
  };
  const auto delta_spikes = run_with_tau(0.0);
  const auto exp_spikes = run_with_tau(10.0);
  EXPECT_GT(exp_spikes, delta_spikes);
  EXPECT_GT(exp_spikes, 5u);
}

TEST(Simulator, ExponentialSynapseDecayIsFinite) {
  // One strong input pulse through a slow synapse must not fire the target
  // forever: the current decays and the neuron falls silent.  The pulse is
  // a real spike, so it reaches the target through the synaptic current.
  Network net;
  const auto in = net.add_poisson_group("in", 1, 0.0);
  const auto out = net.add_lif_group("out", 1);
  // 1 kHz at dt = 1 ms is a spike probability of 1: the source fires in
  // step 0 and never again.
  net.set_rate_function(in, [](std::uint32_t, double now_ms) {
    return now_ms < 0.5 ? 1000.0 : 0.0;
  });
  util::Rng rng(1);
  net.connect_one_to_one(in, out, WeightSpec::fixed(50.0), rng);
  SimulationConfig cfg;
  cfg.syn_tau_ms = 5.0;
  Simulator sim(net, cfg);
  for (int t = 0; t < 300; ++t) sim.step();
  const auto spikes = sim.spikes();
  ASSERT_EQ(spikes[net.group(in).first].size(), 1u);
  const auto& after = spikes[net.group(out).first];
  // Fires at least once right after the pulse, at most a few times, then
  // silence.
  ASSERT_FALSE(after.empty());
  EXPECT_LE(after.size(), 5u);
  EXPECT_LT(after.back(), 50.0);
}

TEST(Simulator, RejectsNonPositiveDt) {
  Network net;
  net.add_lif_group("n", 1);
  SimulationConfig cfg;
  cfg.dt_ms = 0.0;
  EXPECT_THROW(Simulator(net, cfg), std::invalid_argument);
}

TEST(Simulator, RejectsNonFiniteDt) {
  Network net;
  net.add_lif_group("n", 1);
  SimulationConfig cfg;
  cfg.dt_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Simulator(net, cfg), std::invalid_argument);
  cfg.dt_ms = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Simulator(net, cfg), std::invalid_argument);
}

TEST(Simulator, RejectsInvalidDuration) {
  Network net;
  net.add_lif_group("n", 1);
  SimulationConfig cfg;
  cfg.duration_ms = -1.0;
  EXPECT_THROW(Simulator(net, cfg), std::invalid_argument);
  cfg.duration_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Simulator(net, cfg), std::invalid_argument);
  cfg.duration_ms = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Simulator(net, cfg), std::invalid_argument);
  cfg.duration_ms = 0.0;  // legal: zero steps, empty result
  Simulator sim(net, cfg);
  const auto result = sim.run();
  EXPECT_EQ(result.total_spikes, 0u);
  EXPECT_DOUBLE_EQ(result.duration_ms, 0.0);
}

TEST(Simulator, DelayRaisedThroughMutableSynapsesStaysInBounds) {
  // Regression: mutable_synapses() lets a caller raise a delay after the
  // Network cached its max; the delay ring must size itself from the
  // synapses as built, or delivery indexes past the pending buffer
  // (caught by the ASan CI leg).
  Network net;
  const auto in = net.add_poisson_group("in", 1, 200.0);
  const auto out = net.add_lif_group("out", 1);
  util::Rng rng(1);
  net.connect_one_to_one(in, out, WeightSpec::fixed(40.0), rng, /*delay=*/1);
  net.mutable_synapses()[0].delay_steps = 10;
  SimulationConfig cfg;
  cfg.duration_ms = 200.0;
  Simulator sim(net, cfg);
  const auto result = sim.run();
  ASSERT_FALSE(result.spikes[1].empty());
  // Arrivals honor the raised delay.
  EXPECT_GE(result.spikes[1].front(), result.spikes[0].front() + 10.0);
}

TEST(Simulator, DelayLoweredToZeroThroughMutableSynapsesIsRejected) {
  // The mirror image of the raised-delay case: a zero delay would make a
  // spike arrive in the slot being consumed, reaching only the neurons not
  // yet stepped this dt — rejected at construction instead.
  Network net;
  const auto in = net.add_poisson_group("in", 1, 100.0);
  const auto out = net.add_lif_group("out", 1);
  util::Rng rng(1);
  net.connect_one_to_one(in, out, WeightSpec::fixed(40.0), rng, /*delay=*/1);
  net.mutable_synapses()[0].delay_steps = 0;
  SimulationConfig cfg;
  EXPECT_THROW(Simulator(net, cfg), std::invalid_argument);
}

TEST(Simulator, RunCoversNonCommensurateDuration) {
  // Regression: round-to-nearest used to drop the tail step (10 ms at
  // dt = 3 ms simulated only 9 ms).  run() must cover the full duration
  // with whole steps: ceil(10 / 3) = 4 steps = 12 ms.
  Network net;
  net.add_poisson_group("in", 5, 100.0);
  SimulationConfig cfg;
  cfg.dt_ms = 3.0;
  cfg.duration_ms = 10.0;
  Simulator sim(net, cfg);
  const auto result = sim.run();
  EXPECT_GE(result.duration_ms, cfg.duration_ms);
  EXPECT_DOUBLE_EQ(result.duration_ms, 12.0);
}

TEST(Simulator, RunKeepsCommensurateStepCountExact) {
  // An exactly commensurate ratio must not gain a step from the ceil.
  Network net;
  net.add_poisson_group("in", 2, 50.0);
  SimulationConfig cfg;
  cfg.dt_ms = 0.5;
  cfg.duration_ms = 250.0;
  Simulator sim(net, cfg);
  const auto result = sim.run();
  EXPECT_DOUBLE_EQ(result.duration_ms, 250.0);
  // dt = 0.1 is not exactly representable; 1000 / 0.1 must still give
  // exactly 10000 steps, not 10001.
  Network net2;
  net2.add_poisson_group("in", 2, 50.0);
  SimulationConfig cfg2;
  cfg2.dt_ms = 0.1;
  cfg2.duration_ms = 1000.0;
  Simulator sim2(net2, cfg2);
  const auto result2 = sim2.run();
  EXPECT_NEAR(result2.duration_ms, 1000.0, 1e-6);
  EXPECT_LT(result2.duration_ms, 1000.0 + 0.05);
}

}  // namespace
}  // namespace snnmap::snn
