#include "snn/network.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace snnmap::snn {
namespace {

TEST(Network, GroupsAreContiguous) {
  Network net;
  const auto a = net.add_lif_group("a", 10);
  const auto b = net.add_izhikevich_group("b", 5);
  const auto c = net.add_poisson_group("c", 3, 20.0);
  EXPECT_EQ(net.neuron_count(), 18u);
  EXPECT_EQ(net.group(a).first, 0u);
  EXPECT_EQ(net.group(b).first, 10u);
  EXPECT_EQ(net.group(c).first, 15u);
}

TEST(Network, RejectsEmptyGroup) {
  Network net;
  EXPECT_THROW(net.add_lif_group("x", 0), std::invalid_argument);
}

TEST(Network, RejectsNegativePoissonRate) {
  Network net;
  EXPECT_THROW(net.add_poisson_group("x", 4, -1.0), std::invalid_argument);
}

TEST(Network, FindGroupByName) {
  Network net;
  net.add_lif_group("alpha", 2);
  const auto beta = net.add_lif_group("beta", 2);
  EXPECT_EQ(net.find_group("beta"), beta);
  EXPECT_EQ(net.find_group("gamma"), Network::kNoGroup);
}

TEST(Network, FullConnectionCountsAndSelfExclusion) {
  Network net;
  util::Rng rng(1);
  const auto a = net.add_lif_group("a", 4);
  const auto b = net.add_lif_group("b", 3);
  net.connect_full(a, b, WeightSpec::fixed(1.0), rng);
  EXPECT_EQ(net.synapses().size(), 12u);

  Network net2;
  const auto g = net2.add_lif_group("g", 4);
  net2.connect_full(g, g, WeightSpec::fixed(1.0), rng);
  EXPECT_EQ(net2.synapses().size(), 12u);  // 4*4 - 4 self loops

  Network net3;
  const auto h = net3.add_lif_group("h", 4);
  net3.connect_full(h, h, WeightSpec::fixed(1.0), rng, 1, false,
                    /*allow_self=*/true);
  EXPECT_EQ(net3.synapses().size(), 16u);
}

TEST(Network, RandomConnectionProbability) {
  Network net;
  util::Rng rng(2);
  const auto a = net.add_lif_group("a", 100);
  const auto b = net.add_lif_group("b", 100);
  net.connect_random(a, b, 0.25, WeightSpec::fixed(1.0), rng);
  const double got = static_cast<double>(net.synapses().size()) / 10000.0;
  EXPECT_NEAR(got, 0.25, 0.03);
}

TEST(Network, RandomConnectionRejectsBadProbability) {
  Network net;
  util::Rng rng(2);
  const auto a = net.add_lif_group("a", 2);
  EXPECT_THROW(net.connect_random(a, a, -0.1, WeightSpec::fixed(1.0), rng),
               std::invalid_argument);
  EXPECT_THROW(net.connect_random(a, a, 1.1, WeightSpec::fixed(1.0), rng),
               std::invalid_argument);
}

TEST(Network, OneToOneRequiresEqualSizes) {
  Network net;
  util::Rng rng(3);
  const auto a = net.add_lif_group("a", 4);
  const auto b = net.add_lif_group("b", 4);
  const auto c = net.add_lif_group("c", 3);
  net.connect_one_to_one(a, b, WeightSpec::fixed(2.0), rng);
  EXPECT_EQ(net.synapses().size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(net.synapses()[i].pre, i);
    EXPECT_EQ(net.synapses()[i].post, 4 + i);
  }
  EXPECT_THROW(net.connect_one_to_one(a, c, WeightSpec::fixed(1.0), rng),
               std::invalid_argument);
}

TEST(Network, Gaussian2dKernelShape) {
  Network net;
  const auto a = net.add_poisson_group("a", 16, 10.0);  // 4x4
  const auto b = net.add_lif_group("b", 16);
  net.connect_gaussian_2d(a, b, 4, 4, 1, 1.0, 1.0);
  // Interior pixel: 9 afferents; corner: 4.
  std::size_t corner_in = 0;
  std::size_t center_in = 0;
  for (const auto& s : net.synapses()) {
    if (s.post == 16 + 0) ++corner_in;         // (0,0) of b
    if (s.post == 16 + 5) ++center_in;         // (1,1) of b
  }
  EXPECT_EQ(corner_in, 4u);
  EXPECT_EQ(center_in, 9u);
}

TEST(Network, Gaussian2dWeightsDecay) {
  Network net;
  const auto a = net.add_poisson_group("a", 9, 10.0);  // 3x3
  const auto b = net.add_lif_group("b", 9);
  net.connect_gaussian_2d(a, b, 3, 3, 1, 2.0, 0.8);
  float center_w = 0.0F;
  float corner_w = 0.0F;
  for (const auto& s : net.synapses()) {
    if (s.post == 9 + 4 && s.pre == 4) center_w = s.weight;
    if (s.post == 9 + 4 && s.pre == 0) corner_w = s.weight;
  }
  EXPECT_FLOAT_EQ(center_w, 2.0F);
  EXPECT_LT(corner_w, center_w);
  EXPECT_GT(corner_w, 0.0F);
}

TEST(Network, Gaussian2dValidatesSizes) {
  Network net;
  const auto a = net.add_poisson_group("a", 10, 10.0);
  const auto b = net.add_lif_group("b", 16);
  EXPECT_THROW(net.connect_gaussian_2d(a, b, 4, 4, 1, 1.0, 1.0),
               std::invalid_argument);
}

TEST(Network, AddSynapseValidation) {
  Network net;
  net.add_lif_group("a", 2);
  EXPECT_THROW(net.add_synapse(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(net.add_synapse(5, 0, 1.0), std::out_of_range);
  EXPECT_THROW(net.add_synapse(0, 1, 1.0, /*delay=*/0), std::invalid_argument);
}

TEST(Network, MaxDelayTracksSynapses) {
  Network net;
  net.add_lif_group("a", 3);
  EXPECT_EQ(net.max_delay_steps(), 1u);
  net.add_synapse(0, 1, 1.0, 4);
  net.add_synapse(1, 2, 1.0, 2);
  EXPECT_EQ(net.max_delay_steps(), 4u);
}

TEST(Network, FanoutIndexIsConsistent) {
  Network net;
  net.add_lif_group("a", 4);
  net.add_synapse(0, 1, 1.0);
  net.add_synapse(0, 2, 1.0);
  net.add_synapse(2, 3, 1.0);
  const auto& offsets = net.fanout_offsets();
  const auto& order = net.fanout_synapses();
  ASSERT_EQ(offsets.size(), 5u);
  EXPECT_EQ(offsets[1] - offsets[0], 2u);  // neuron 0 has 2 outgoing
  EXPECT_EQ(offsets[3] - offsets[2], 1u);  // neuron 2 has 1
  std::set<std::uint32_t> targets;
  for (std::uint32_t k = offsets[0]; k < offsets[1]; ++k) {
    targets.insert(net.synapses()[order[k]].post);
  }
  EXPECT_EQ(targets, (std::set<std::uint32_t>{1, 2}));
}

TEST(Network, FanoutIndexInvalidatedByNewSynapse) {
  Network net;
  net.add_lif_group("a", 3);
  net.add_synapse(0, 1, 1.0);
  EXPECT_EQ(net.fanout_offsets()[1], 1u);
  net.add_synapse(0, 2, 1.0);
  EXPECT_EQ(net.fanout_offsets()[1], 2u);  // rebuilt
}

TEST(Network, RateFunctionOnlyOnPoissonGroups) {
  Network net;
  const auto a = net.add_lif_group("a", 2);
  EXPECT_THROW(
      net.set_rate_function(a, [](std::uint32_t, double) { return 1.0; }),
      std::invalid_argument);
}

TEST(WeightSpec, FixedAndUniform) {
  util::Rng rng(4);
  EXPECT_EQ(WeightSpec::fixed(2.5).sample(rng), 2.5);
  const auto spec = WeightSpec::uniform(1.0, 2.0);
  for (int i = 0; i < 100; ++i) {
    const double w = spec.sample(rng);
    EXPECT_GE(w, 1.0);
    EXPECT_LT(w, 2.0);
  }
}

}  // namespace
}  // namespace snnmap::snn
