#include "core/cost.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/framework.hpp"
#include "noc/simulator.hpp"
#include "util/rng.hpp"

namespace snnmap::core {
namespace {

/// 4 neurons in a chain 0->1->2->3 plus a skip edge 0->2.
/// Spike counts: neuron i spikes (i+1)*10 times... actually fixed below.
snn::SnnGraph chain_graph() {
  std::vector<snn::GraphEdge> edges{
      {0, 1, 1.0F}, {1, 2, 1.0F}, {2, 3, 1.0F}, {0, 2, 1.0F}};
  // Spike counts: n0=3, n1=5, n2=2, n3=7 (n3 has no fan-out).
  std::vector<snn::SpikeTrain> trains{
      {1, 2, 3}, {1, 2, 3, 4, 5}, {1, 2}, {1, 2, 3, 4, 5, 6, 7}};
  return snn::SnnGraph::from_parts(4, std::move(edges), std::move(trains),
                                   100.0);
}

Partition make_partition(std::vector<CrossbarId> assignment,
                         std::uint32_t crossbars) {
  Partition p(static_cast<std::uint32_t>(assignment.size()), crossbars);
  for (std::uint32_t i = 0; i < assignment.size(); ++i) {
    p.assign(i, assignment[i]);
  }
  return p;
}

TEST(CostModel, AllLocalIsZero) {
  const auto g = chain_graph();
  const CostModel cost(g);
  EXPECT_EQ(cost.global_spike_count(make_partition({0, 0, 0, 0}, 2)), 0u);
}

TEST(CostModel, CutEdgesChargePreSpikes) {
  const auto g = chain_graph();
  const CostModel cost(g);
  // Split {0,1} | {2,3}: cut edges 1->2 (5 spikes) and 0->2 (3 spikes).
  EXPECT_EQ(cost.global_spike_count(make_partition({0, 0, 1, 1}, 2)), 8u);
  // Split {0,2} | {1,3}: cut 0->1 (3), 1->2 (5), 2->3 (2) = 10.
  EXPECT_EQ(cost.global_spike_count(make_partition({0, 1, 0, 1}, 2)), 10u);
}

TEST(CostModel, SpikesBetweenIsDirectional) {
  const auto g = chain_graph();
  const CostModel cost(g);
  const auto p = make_partition({0, 0, 1, 1}, 2);
  EXPECT_EQ(cost.spikes_between(p, 0, 1), 8u);  // 1->2 and 0->2
  EXPECT_EQ(cost.spikes_between(p, 1, 0), 0u);
  EXPECT_EQ(cost.spikes_between(p, 0, 0), 0u);  // Eq. 7 diagonal
}

TEST(CostModel, LocalPlusGlobalEqualsTotal) {
  const auto g = chain_graph();
  const CostModel cost(g);
  for (const auto& assignment :
       {std::vector<CrossbarId>{0, 0, 0, 0}, {0, 0, 1, 1}, {0, 1, 0, 1},
        {1, 1, 0, 0}}) {
    const auto p = make_partition(assignment, 2);
    EXPECT_EQ(cost.global_spike_count(p) + cost.local_event_count(p),
              cost.total_event_count());
  }
}

TEST(CostModel, TotalEventCount) {
  const auto g = chain_graph();
  const CostModel cost(g);
  // 0->1:3, 1->2:5, 2->3:2, 0->2:3 = 13.
  EXPECT_EQ(cost.total_event_count(), 13u);
}

TEST(CostModel, MulticastCollapsesSameCrossbarTargets) {
  // Neuron 0 fans out to 1 and 2; if both land on the same remote crossbar,
  // each spike is one packet, not two.
  std::vector<snn::GraphEdge> edges{{0, 1, 1.0F}, {0, 2, 1.0F}};
  std::vector<snn::SpikeTrain> trains{{1, 2, 3, 4}, {}, {}};
  const auto g =
      snn::SnnGraph::from_parts(3, std::move(edges), std::move(trains), 10.0);
  const CostModel cost(g);
  EXPECT_EQ(cost.multicast_packet_count(make_partition({0, 1, 1}, 2)), 4u);
  EXPECT_EQ(cost.multicast_packet_count(make_partition({0, 1, 2}, 3)), 8u);
  EXPECT_EQ(cost.multicast_packet_count(make_partition({0, 0, 0}, 2)), 0u);
}

TEST(CostModel, MulticastCountMatchesBruteForce) {
  // Reference: one packet per spike per distinct remote assigned crossbar.
  // Random graphs carry self-loops and duplicate edges, and random
  // assignments leave some neurons kUnassigned, as source and as target.
  // One model serves every crossbar count, so its stamp scratch both grows
  // and is reused between calls.
  util::Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.below(60));
    std::vector<snn::GraphEdge> edges;
    const std::uint64_t edge_count = rng.below(6 * n);
    for (std::uint64_t e = 0; e < edge_count; ++e) {
      const auto pre = static_cast<std::uint32_t>(rng.below(n));
      const auto post = rng.chance(0.1)
                            ? pre
                            : static_cast<std::uint32_t>(rng.below(n));
      edges.push_back({pre, post, 1.0F});
      if (rng.chance(0.1)) edges.push_back({pre, post, 1.0F});
    }
    std::vector<snn::SpikeTrain> trains(n);
    for (auto& train : trains) {
      const std::uint64_t spikes = rng.below(4);
      for (std::uint64_t s = 0; s < spikes; ++s) {
        train.push_back(static_cast<double>(s + 1));
      }
    }
    const auto g = snn::SnnGraph::from_parts(n, edges, std::move(trains),
                                             10.0);
    const CostModel cost(g);
    for (std::uint32_t c = 1; c <= 70; ++c) {
      std::vector<CrossbarId> assignment(n);
      for (auto& k : assignment) {
        k = rng.chance(0.1) ? kUnassigned
                            : static_cast<CrossbarId>(rng.below(c));
      }
      std::vector<std::set<CrossbarId>> remote(n);
      for (const auto& e : edges) {
        const CrossbarId to = assignment[e.post];
        if (to != kUnassigned && to != assignment[e.pre]) {
          remote[e.pre].insert(to);
        }
      }
      std::uint64_t expected = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        expected += g.spike_count(i) * remote[i].size();
      }
      EXPECT_EQ(cost.multicast_packet_count(assignment), expected)
          << "trial " << trial << ", " << c << " crossbars";
    }
  }
}

TEST(CostModel, TallyIncidentSpikesMatchesEdgeList) {
  // Chain graph plus a self-loop on 2; neuron 2 is unassigned, as an
  // evicted neuron is during capacity repair.
  std::vector<snn::GraphEdge> edges{{0, 1, 1.0F}, {1, 2, 1.0F}, {2, 3, 1.0F},
                                    {0, 2, 1.0F}, {2, 2, 1.0F}, {3, 1, 1.0F}};
  std::vector<snn::SpikeTrain> trains{
      {1, 2, 3}, {1, 2, 3, 4, 5}, {1, 2}, {1, 2, 3, 4, 5, 6, 7}};
  const auto g =
      snn::SnnGraph::from_parts(4, std::move(edges), std::move(trains), 100.0);
  const CostModel cost(g);
  const std::vector<CrossbarId> assignment{0, 1, kUnassigned, 1};
  for (std::uint32_t neuron = 0; neuron < 4; ++neuron) {
    std::vector<std::uint64_t> want(3, 0);
    for (const auto& e : g.edges()) {
      if (e.pre == e.post) continue;
      const std::uint32_t other = e.pre == neuron    ? e.post
                                  : e.post == neuron ? e.pre
                                                     : neuron;
      if (other == neuron || assignment[other] == kUnassigned) continue;
      want[assignment[other]] += g.spike_count(e.pre);
    }
    std::vector<std::uint64_t> tally(3, 0);
    cost.tally_incident_spikes(assignment, neuron, tally);
    EXPECT_EQ(tally, want) << "neuron " << neuron;
  }
  // Neuron 2 shares 3 (0 -> 2) spikes with crossbar 0 and 5 (1 -> 2) + 2
  // (2 -> 3) with crossbar 1.
  std::vector<std::uint64_t> tally(3, 0);
  cost.tally_incident_spikes(assignment, 2, tally);
  EXPECT_EQ(tally, (std::vector<std::uint64_t>{3, 7, 0}));
}

TEST(CostModel, SelfLoopsNeverCount) {
  std::vector<snn::GraphEdge> edges{{0, 0, 1.0F}, {0, 1, 1.0F}};
  std::vector<snn::SpikeTrain> trains{{1, 2}, {}};
  const auto g =
      snn::SnnGraph::from_parts(2, std::move(edges), std::move(trains), 10.0);
  const CostModel cost(g);
  // Only 0->1 can be cut.
  EXPECT_EQ(cost.global_spike_count(make_partition({0, 1}, 2)), 2u);
  // Neuron 0 shares only the 0->1 spikes; its self-loop tallies nothing on
  // its own crossbar.
  std::vector<std::uint64_t> tally(2, 0);
  cost.tally_incident_spikes({0, 1}, 0, tally);
  EXPECT_EQ(tally, (std::vector<std::uint64_t>{0, 2}));
}

TEST(CostModel, TrafficMatrixMatchesSpikesBetween) {
  const auto g = chain_graph();
  const CostModel cost(g);
  const auto p = make_partition({0, 1, 0, 1}, 2);
  const auto matrix = cost.traffic_matrix(p);
  for (CrossbarId a = 0; a < 2; ++a) {
    for (CrossbarId b = 0; b < 2; ++b) {
      EXPECT_EQ(matrix[a * 2 + b], cost.spikes_between(p, a, b));
    }
  }
}

TEST(CostModel, LocalEnergyScalesWithModel) {
  const auto g = chain_graph();
  const CostModel cost(g);
  const auto p = make_partition({0, 0, 0, 0}, 2);
  hw::EnergyModel energy;
  energy.crossbar_event_pj = 2.0;
  EXPECT_DOUBLE_EQ(cost.local_energy_pj(p, energy), 13.0 * 2.0);
}

TEST(CostModel, AnalyticEnergyZeroWhenAllLocal) {
  const auto g = chain_graph();
  const CostModel cost(g);
  const auto topo = noc::Topology::mesh(2, 2);
  const auto p = make_partition({0, 0, 0, 0}, 4);
  const std::vector<noc::TileId> placement{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(
      cost.analytic_global_energy_pj(p, topo, placement, {}, true), 0.0);
}

TEST(CostModel, AnalyticEnergyGrowsWithDistance) {
  const auto g = chain_graph();
  const CostModel cost(g);
  const auto topo = noc::Topology::mesh(2, 2);
  const std::vector<noc::TileId> near_placement{0, 1, 2, 3};
  // Partition {0,1} on crossbar 0 and {2,3} on crossbar 1 (adjacent tiles)
  // vs crossbar 3 (diagonal tile, 2 hops).
  const auto near_p = make_partition({0, 0, 1, 1}, 4);
  const auto far_p = make_partition({0, 0, 3, 3}, 4);
  const double e_near =
      cost.analytic_global_energy_pj(near_p, topo, near_placement, {}, true);
  const double e_far =
      cost.analytic_global_energy_pj(far_p, topo, near_placement, {}, true);
  EXPECT_GT(e_far, e_near);
  EXPECT_GT(e_near, 0.0);
}

TEST(CostModel, AnalyticUnicastAtLeastMulticast) {
  std::vector<snn::GraphEdge> edges{{0, 1, 1.0F}, {0, 2, 1.0F}, {0, 3, 1.0F}};
  std::vector<snn::SpikeTrain> trains{{1, 2, 3}, {}, {}, {}};
  const auto g =
      snn::SnnGraph::from_parts(4, std::move(edges), std::move(trains), 10.0);
  const CostModel cost(g);
  const auto topo = noc::Topology::tree(4, 4);
  const std::vector<noc::TileId> placement{0, 1, 2, 3};
  const auto p = make_partition({0, 1, 2, 3}, 4);
  const double multicast =
      cost.analytic_global_energy_pj(p, topo, placement, {}, true);
  const double unicast =
      cost.analytic_global_energy_pj(p, topo, placement, {}, false);
  EXPECT_GE(unicast, multicast);
}

TEST(CostModel, AnalyticEnergyIgnoresFanoutOrder) {
  // A neuron's energy contribution must be a pure function of ITS remote
  // destination set — never of which neurons happened to be processed
  // before it.  The former `std::unordered_set<CrossbarId>` accumulator
  // broke that: it was cleared (not destroyed) between neurons, and
  // libstdc++'s clear() keeps the grown bucket count, so a big-fanout
  // neuron earlier in the walk changed a later neuron's hash layout and
  // with it the FP addition order of its per-destination terms (verified:
  // crossbars {1,4,10,40} on an 8x8 mesh sum to 84.000000000000014 in a
  // fresh 13-bucket table and 84.0 after a 40-element set widened it to 59
  // buckets).  The sorted materialization makes each contribution
  // order-pure, so the total is exactly additive per spiking neuron —
  // pinned bitwise here, not with EXPECT_NEAR.
  //
  // Layout: neuron 0 ("A") fans out to 40 distinct crossbars; neuron 41
  // ("B") fans out to crossbars {1,4,10,40}, the set above.  Silencing a
  // neuron (empty spike train) removes its contribution without touching
  // the edge structure.  The fabric is a multi-chip dragonfly, so B's
  // multicast tree mixes on-chip and off-chip edge prices and its
  // `per_spike` sum is genuinely order-sensitive; the multicast branch
  // folds each neuron into the total with a single `+= per_spike * spikes`,
  // which is what makes the additivity below exact (not just close) once
  // per-neuron contributions are order-pure.
  std::vector<snn::GraphEdge> edges;
  for (std::uint32_t t = 1; t <= 40; ++t) edges.push_back({0, t, 1.0F});
  for (std::uint32_t t = 42; t <= 45; ++t) edges.push_back({41, t, 1.0F});
  std::vector<CrossbarId> assign(46);
  assign[0] = 61;
  for (std::uint32_t t = 1; t <= 40; ++t) assign[t] = 20 + t;  // 21..60
  assign[41] = 0;
  assign[42] = 1;
  assign[43] = 4;
  assign[44] = 10;
  assign[45] = 40;
  const auto p = make_partition(assign, 64);
  // 8 groups (chips) of 8 single-tile routers: tiles 1 and 4 are local to
  // B's group, tiles 10 and 40 sit behind global (off-chip) channels.
  auto topo = noc::Topology::dragonfly(8, 8, 1);
  topo.assign_chips(8);
  std::vector<noc::TileId> placement(64);
  for (std::uint32_t c = 0; c < 64; ++c) placement[c] = c;
  hw::EnergyModel energy;
  // Values with no short binary representation, so addition order matters
  // (this exact combination reproduced the ULP split under the old code).
  energy.link_hop_pj = 0.1;
  energy.router_flit_pj = 0.3;
  energy.aer_codec_pj = 0.7;
  energy.offchip_link_hop_pj = 5.9;
  const snn::SpikeTrain a_train{1, 2, 3};
  const snn::SpikeTrain b_train{1, 2, 3, 4, 5, 6, 7};
  const auto energy_with = [&](bool spike_a, bool spike_b) {
    std::vector<snn::SpikeTrain> trains(46);
    if (spike_a) trains[0] = a_train;
    if (spike_b) trains[41] = b_train;
    auto graph_edges = edges;
    const auto g = snn::SnnGraph::from_parts(46, std::move(graph_edges),
                                             std::move(trains), 100.0);
    return CostModel(g).analytic_global_energy_pj(p, topo, placement, energy,
                                                  /*multicast=*/true);
  };
  const double e_both = energy_with(true, true);
  const double e_a = energy_with(true, false);
  const double e_b = energy_with(false, true);
  EXPECT_GT(e_a, 0.0);
  EXPECT_GT(e_b, 0.0);
  // Bitwise, not EXPECT_NEAR: determinism is the property under test.
  EXPECT_EQ(e_both, e_a + e_b);
}

/// Star-burst workload for the analytic/simulated parity checks: every
/// neuron fans out to several others, so multicast trees share prefixes and
/// fork — the shape the old `charged_routers` accounting double-charged.
snn::SnnGraph fanout_graph(std::uint32_t neurons) {
  util::Rng rng(23);
  std::vector<snn::GraphEdge> edges;
  std::vector<snn::SpikeTrain> trains;
  for (std::uint32_t i = 0; i < neurons; ++i) {
    for (int f = 0; f < 4; ++f) {
      auto post = static_cast<std::uint32_t>(rng.below(neurons));
      if (post == i) post = (post + 1) % neurons;
      edges.push_back({i, post, 1.0F});
    }
    snn::SpikeTrain train;
    const std::uint64_t spikes = rng.below(4) + 1;
    for (std::uint64_t s = 0; s < spikes; ++s) {
      train.push_back(static_cast<double>(s) + 0.5);
    }
    trains.push_back(std::move(train));
  }
  return snn::SnnGraph::from_parts(neurons, std::move(edges),
                                   std::move(trains), 8.0);
}

/// The analytic estimate must agree with the cycle-accurate NocSimulator:
/// energy is activity-based on both sides, so on any drained run the only
/// admissible difference is floating-point summation order.
void expect_energy_parity(const snn::SnnGraph& graph, noc::Topology topology,
                          std::uint32_t crossbars, bool multicast) {
  const CostModel cost(graph);
  Partition partition(graph.neuron_count(), crossbars);
  for (std::uint32_t i = 0; i < graph.neuron_count(); ++i) {
    partition.assign(i, i % crossbars);
  }
  std::vector<noc::TileId> placement(crossbars);
  for (std::uint32_t c = 0; c < crossbars; ++c) placement[c] = c;

  const double analytic = cost.analytic_global_energy_pj(
      partition, topology, placement, {}, multicast);

  const std::uint32_t chips = topology.chip_count();
  auto traffic = build_traffic(graph, partition, placement,
                               /*cycles_per_ms=*/1000, /*jitter_cycles=*/0);
  ASSERT_FALSE(traffic.empty());
  noc::NocConfig config;
  config.multicast = multicast;
  noc::NocSimulator sim(std::move(topology), config);
  const auto result = sim.run(std::move(traffic));
  ASSERT_TRUE(result.stats.drained);
  EXPECT_GT(result.stats.global_energy_pj, 0.0);
  if (chips > 1) {
    // The multi-chip parity is only meaningful if boundary hops occurred.
    EXPECT_GT(result.stats.offchip_link_hops, 0u);
    EXPECT_LE(result.stats.offchip_link_hops, result.stats.link_hops);
  }
  EXPECT_NEAR(analytic, result.stats.global_energy_pj,
              1e-9 * result.stats.global_energy_pj);
}

TEST(CostModel, AnalyticMulticastMatchesSimulatedOnTree) {
  // Tree multicast is the regression shape: shared root-to-subtree
  // prefixes with forks at internal routers.  The old accounting charged
  // router_flit_pj per *distinct* router (over-counting fork routers,
  // under-counting per-copy ejections) and disagreed with the simulator.
  expect_energy_parity(fanout_graph(48), noc::Topology::tree(12, 4), 12,
                       /*multicast=*/true);
}

TEST(CostModel, AnalyticMulticastMatchesSimulatedOnMesh) {
  expect_energy_parity(fanout_graph(48), noc::Topology::mesh(3, 3), 9,
                       /*multicast=*/true);
}

TEST(CostModel, AnalyticUnicastMatchesSimulatedOnTree) {
  expect_energy_parity(fanout_graph(48), noc::Topology::tree(12, 4), 12,
                       /*multicast=*/false);
}

TEST(CostModel, AnalyticMatchesSimulatedOnMultiChipDragonfly) {
  // One chip per dragonfly group: every global channel is an off-chip link,
  // so the analytic walk must price offchip_link_hop_pj on exactly the hops
  // the simulator's off-chip counter charges (charge-for-charge parity).
  auto multicast_topo = noc::Topology::dragonfly(4, 5, 1);
  multicast_topo.assign_chips(5);
  expect_energy_parity(fanout_graph(60), std::move(multicast_topo), 20,
                       /*multicast=*/true);
  auto unicast_topo = noc::Topology::dragonfly(4, 5, 1);
  unicast_topo.assign_chips(5);
  expect_energy_parity(fanout_graph(60), std::move(unicast_topo), 20,
                       /*multicast=*/false);
}

TEST(CostModel, AnalyticMatchesSimulatedOnMultiChipFattree) {
  // One chip per pod (cores land on chip 0): cross-pod routes cross one or
  // two chip boundaries depending on the pods involved.
  auto multicast_topo = noc::Topology::fattree(4);
  multicast_topo.assign_chips(4);
  expect_energy_parity(fanout_graph(48), std::move(multicast_topo), 8,
                       /*multicast=*/true);
  auto unicast_topo = noc::Topology::fattree(4);
  unicast_topo.assign_chips(4);
  expect_energy_parity(fanout_graph(48), std::move(unicast_topo), 8,
                       /*multicast=*/false);
}

TEST(CostModel, AnalyticMatchesSimulatedOnMultiChipTree) {
  auto topo = noc::Topology::tree(12, 4);
  topo.assign_chips(3);  // one chip per 4-leaf subtree
  expect_energy_parity(fanout_graph(48), std::move(topo), 12,
                       /*multicast=*/true);
}

TEST(CostModel, AnalyticEnergyValidatesPlacement) {
  const auto g = chain_graph();
  const CostModel cost(g);
  const auto topo = noc::Topology::mesh(2, 2);
  const auto p = make_partition({0, 0, 1, 1}, 2);
  EXPECT_THROW(
      cost.analytic_global_energy_pj(p, topo, {0, 1, 2}, {}, true),
      std::invalid_argument);
}

}  // namespace
}  // namespace snnmap::core
