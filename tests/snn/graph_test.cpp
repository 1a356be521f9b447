#include "snn/graph.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace snnmap::snn
