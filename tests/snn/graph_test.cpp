#include "snn/graph.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "snn/network.hpp"
#include "snn/simulator.hpp"

namespace snnmap::snn {
namespace {

SnnGraph tiny_graph() {
  std::vector<GraphEdge> edges{{0, 1, 1.0F}, {0, 2, 0.5F}, {1, 2, -1.0F}};
  std::vector<SpikeTrain> trains{{1.0, 2.0, 3.0}, {5.0}, {}};
  return SnnGraph::from_parts(3, std::move(edges), std::move(trains), 100.0);
}

TEST(SnnGraph, BasicAccessors) {
  const auto g = tiny_graph();
  EXPECT_EQ(g.neuron_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.total_spikes(), 4u);
  EXPECT_EQ(g.spike_count(0), 3u);
  EXPECT_EQ(g.spike_count(2), 0u);
  EXPECT_DOUBLE_EQ(g.duration_ms(), 100.0);
}

TEST(SnnGraph, FanoutIndex) {
  const auto g = tiny_graph();
  EXPECT_EQ(g.fanout_degree(0), 2u);
  EXPECT_EQ(g.fanout_degree(1), 1u);
  EXPECT_EQ(g.fanout_degree(2), 0u);
  const auto& offsets = g.fanout_offsets();
  const auto& targets = g.fanout_targets();
  EXPECT_EQ(targets[offsets[0]], 1u);
  EXPECT_EQ(targets[offsets[0] + 1], 2u);
}

TEST(SnnGraph, MeanRate) {
  const auto g = tiny_graph();
  // 4 spikes / 3 neurons / 0.1 s = 13.33 Hz
  EXPECT_NEAR(g.mean_rate_hz(), 13.333, 0.01);
}

TEST(SnnGraph, RejectsBadEdges) {
  std::vector<GraphEdge> edges{{0, 9, 1.0F}};
  std::vector<SpikeTrain> trains{{}, {}};
  EXPECT_THROW(
      SnnGraph::from_parts(2, std::move(edges), std::move(trains), 10.0),
      std::invalid_argument);
}

TEST(SnnGraph, RejectsUnsortedTrains) {
  std::vector<GraphEdge> edges;
  std::vector<SpikeTrain> trains{{5.0, 1.0}};
  EXPECT_THROW(
      SnnGraph::from_parts(1, std::move(edges), std::move(trains), 10.0),
      std::invalid_argument);
}

TEST(SnnGraph, RejectsTrainCountMismatch) {
  EXPECT_THROW(SnnGraph::from_parts(3, {}, {{}, {}}, 10.0),
               std::invalid_argument);
}

TEST(SnnGraph, RejectsMalformedGroups) {
  EXPECT_THROW(
      SnnGraph::from_parts(2, {}, {{}, {}}, 10.0, {"a"}, {0, 5}),
      std::invalid_argument);
}

TEST(SnnGraph, FromSimulationCollapsesParallelEdges) {
  Network net;
  net.add_lif_group("a", 2);
  net.add_synapse(0, 1, 1.0);
  net.add_synapse(0, 1, 2.0);  // parallel synapse
  SimulationConfig cfg;
  cfg.duration_ms = 10.0;
  Simulator sim(net, cfg);
  const auto g = SnnGraph::from_simulation(net, sim.run());
  ASSERT_EQ(g.edge_count(), 1u);
  EXPECT_FLOAT_EQ(g.edges()[0].weight, 3.0F);  // weights summed
}

TEST(SnnGraph, FromSimulationKeepsGroupAnnotations) {
  Network net;
  net.add_poisson_group("in", 3, 10.0);
  net.add_lif_group("out", 2);
  SimulationConfig cfg;
  cfg.duration_ms = 50.0;
  Simulator sim(net, cfg);
  const auto g = SnnGraph::from_simulation(net, sim.run());
  ASSERT_EQ(g.group_names().size(), 2u);
  EXPECT_EQ(g.group_names()[0], "in");
  EXPECT_EQ(g.group_first()[1], 3u);
  EXPECT_EQ(g.group_first()[2], 5u);
}

TEST(SnnGraph, SaveLoadRoundTrip) {
  const auto g = tiny_graph();
  std::stringstream stream;
  g.save(stream);
  const auto loaded = SnnGraph::load(stream);
  EXPECT_EQ(loaded.neuron_count(), g.neuron_count());
  EXPECT_EQ(loaded.edge_count(), g.edge_count());
  EXPECT_EQ(loaded.total_spikes(), g.total_spikes());
  EXPECT_EQ(loaded.spike_train(0), g.spike_train(0));
  EXPECT_DOUBLE_EQ(loaded.duration_ms(), g.duration_ms());
  for (std::size_t i = 0; i < g.edge_count(); ++i) {
    EXPECT_EQ(loaded.edges()[i].pre, g.edges()[i].pre);
    EXPECT_EQ(loaded.edges()[i].post, g.edges()[i].post);
    EXPECT_FLOAT_EQ(loaded.edges()[i].weight, g.edges()[i].weight);
  }
}

TEST(SnnGraph, LoadRejectsBadHeader) {
  std::stringstream stream("bogus 7\n");
  EXPECT_THROW(SnnGraph::load(stream), std::runtime_error);
}

TEST(SnnGraph, LoadRejectsTruncated) {
  std::stringstream stream("snngraph 1\n3 2 100\n0\n0 1 1.0\n");
  EXPECT_THROW(SnnGraph::load(stream), std::runtime_error);
}

TEST(SnnGraph, LoadRejectsCountsPastTheStream) {
  // Neuron, edge, group and spike counts far past what the stream holds
  // fail as truncation after reading what is there; none sizes an
  // allocation up front.
  for (const char* text : {"snngraph 1\n4000000000 0 100\n0\n",
                           "snngraph 1\n2 1000000000000 100\n0\n",
                           "snngraph 1\n2 0 100\n1000000000000\n",
                           "snngraph 1\n1 0 100\n0\n1000000000000 5\n"}) {
    std::stringstream stream(text);
    EXPECT_THROW(SnnGraph::load(stream), std::runtime_error) << text;
  }
}

}  // namespace
}  // namespace snnmap::snn
