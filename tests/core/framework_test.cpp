#include "core/framework.hpp"

#include <gtest/gtest.h>

#include <set>

namespace snnmap::core {
namespace {

/// Small layered graph with spikes at known times.
snn::SnnGraph tiny_workload() {
  std::vector<snn::GraphEdge> edges;
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = 4; b < 8; ++b) edges.push_back({a, b, 1.0F});
  }
  std::vector<snn::SpikeTrain> trains(8);
  for (std::uint32_t i = 0; i < 4; ++i) {
    trains[i] = {1.0 + i, 5.0 + i, 9.0 + i};
  }
  return snn::SnnGraph::from_parts(8, std::move(edges), std::move(trains),
                                   20.0);
}

hw::Architecture arch_4x2() {
  hw::Architecture arch;
  arch.crossbar_count = 4;
  arch.neurons_per_crossbar = 2;
  arch.interconnect = hw::InterconnectKind::kTree;
  arch.tree_arity = 4;
  return arch;
}

TEST(BuildTraffic, OnePacketPerSpikeWithRemoteFanout) {
  const auto g = tiny_workload();
  Partition p(8, 2);
  for (std::uint32_t i = 0; i < 8; ++i) p.assign(i, i < 4 ? 0 : 1);
  const auto traffic = build_traffic(g, p, {0, 1}, 1000, 0);
  // 4 source neurons x 3 spikes each, all fan-out is remote.
  EXPECT_EQ(traffic.size(), 12u);
  for (const auto& ev : traffic) {
    EXPECT_EQ(ev.dest_tiles, std::vector<noc::TileId>{1});
    EXPECT_EQ(ev.source_tile, 0u);
  }
}

TEST(BuildTraffic, LocalFanoutEmitsNothing) {
  const auto g = tiny_workload();
  Partition p(8, 2);
  for (std::uint32_t i = 0; i < 8; ++i) p.assign(i, 0);
  EXPECT_TRUE(build_traffic(g, p, {0, 1}, 1000, 0).empty());
}

TEST(BuildTraffic, EmitCycleScalesWithClock) {
  const auto g = tiny_workload();
  Partition p(8, 2);
  for (std::uint32_t i = 0; i < 8; ++i) p.assign(i, i < 4 ? 0 : 1);
  const auto traffic = build_traffic(g, p, {0, 1}, 1000, 0);
  // Neuron 0's first spike at 1.0 ms -> cycle 1000 exactly (no jitter).
  bool found = false;
  for (const auto& ev : traffic) {
    if (ev.source_neuron == 0 && ev.emit_cycle == 1000) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(BuildTraffic, JitterStaysWithinBound) {
  const auto g = tiny_workload();
  Partition p(8, 2);
  for (std::uint32_t i = 0; i < 8; ++i) p.assign(i, i < 4 ? 0 : 1);
  const auto base = build_traffic(g, p, {0, 1}, 1000, 0);
  const auto jittered = build_traffic(g, p, {0, 1}, 1000, 32);
  ASSERT_EQ(base.size(), jittered.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_GE(jittered[i].emit_cycle, base[i].emit_cycle);
    EXPECT_LT(jittered[i].emit_cycle, base[i].emit_cycle + 32);
  }
}

TEST(BuildTraffic, PlacementMapsTiles) {
  const auto g = tiny_workload();
  Partition p(8, 2);
  for (std::uint32_t i = 0; i < 8; ++i) p.assign(i, i < 4 ? 0 : 1);
  const auto traffic = build_traffic(g, p, {3, 2}, 1000, 0);
  for (const auto& ev : traffic) {
    EXPECT_EQ(ev.source_tile, 3u);
    EXPECT_EQ(ev.dest_tiles, std::vector<noc::TileId>{2});
  }
}

TEST(BuildTraffic, ValidatesPlacementSize) {
  const auto g = tiny_workload();
  Partition p(8, 2);
  for (std::uint32_t i = 0; i < 8; ++i) p.assign(i, 0);
  EXPECT_THROW(build_traffic(g, p, {0}, 1000, 0), std::invalid_argument);
}

TEST(BuildTraffic, RejectsIncompletePartition) {
  const auto g = tiny_workload();
  // Target neuron 4 unassigned: its crossbar id would index past the
  // per-crossbar scratch.
  Partition unassigned(8, 2);
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i != 4) unassigned.assign(i, i < 4 ? 0 : 1);
  }
  EXPECT_THROW(build_traffic(g, unassigned, {0, 1}, 1000, 0),
               std::invalid_argument);
  // A partition of fewer neurons than the graph would be read past its end.
  Partition short_part(7, 2);
  for (std::uint32_t i = 0; i < 7; ++i) short_part.assign(i, i < 4 ? 0 : 1);
  EXPECT_THROW(build_traffic(g, short_part, {0, 1}, 1000, 0),
               std::invalid_argument);
}

TEST(Flow, EndToEndProducesConsistentReport) {
  const auto g = tiny_workload();
  MappingFlowConfig config;
  config.arch = arch_4x2();
  config.partitioner = PartitionerKind::kPso;
  config.pso.swarm_size = 15;
  config.pso.iterations = 15;
  const auto report = run_mapping_flow(g, config);
  EXPECT_NO_THROW(report.partition.validate(config.arch));
  EXPECT_EQ(report.global_spikes + report.local_events,
            CostModel(g).total_event_count());
  EXPECT_TRUE(report.noc_stats.drained);
  // Every offered packet is a multicast event; deliveries >= packets.
  EXPECT_GE(report.noc_stats.copies_delivered, report.packets_offered > 0
                ? 1u : 0u);
  EXPECT_GE(report.total_energy_pj(), 0.0);
  EXPECT_EQ(report.total_energy_uj(), report.total_energy_pj() * 1e-6);
}

TEST(Flow, AllPartitionersRun) {
  const auto g = tiny_workload();
  for (const auto kind :
       {PartitionerKind::kPso, PartitionerKind::kPacman,
        PartitionerKind::kNeutrams, PartitionerKind::kAnnealing,
        PartitionerKind::kGenetic}) {
    MappingFlowConfig config;
    config.arch = arch_4x2();
    config.partitioner = kind;
    config.pso.swarm_size = 8;
    config.pso.iterations = 8;
    config.annealing.moves = 2000;
    config.genetic.population = 8;
    config.genetic.generations = 8;
    const auto report = run_mapping_flow(g, config);
    EXPECT_NO_THROW(report.partition.validate(config.arch))
        << to_string(kind);
  }
}

TEST(Flow, PsoNeverSendsMorePacketsThanBaselines) {
  const auto g = tiny_workload();
  const CostModel cost(g);
  MappingFlowConfig config;
  config.arch = arch_4x2();
  config.pso.swarm_size = 15;
  config.pso.iterations = 20;

  config.partitioner = PartitionerKind::kPso;
  const auto pso = run_mapping_flow(g, config);
  config.partitioner = PartitionerKind::kPacman;
  const auto pacman = run_mapping_flow(g, config);
  config.partitioner = PartitionerKind::kNeutrams;
  const auto neutrams = run_mapping_flow(g, config);

  // The default objective is AER packets (what the NoC actually carries).
  const auto packets = [&](const MappingReport& r) {
    return cost.multicast_packet_count(r.partition);
  };
  EXPECT_LE(packets(pso), packets(pacman));
  EXPECT_LE(packets(pso), packets(neutrams));
}

TEST(Flow, CommAwarePlacementDoesNotBreakAnything) {
  const auto g = tiny_workload();
  MappingFlowConfig config;
  config.arch = arch_4x2();
  config.arch.interconnect = hw::InterconnectKind::kMesh;
  config.comm_aware_placement = true;
  config.partitioner = PartitionerKind::kPacman;
  const auto report = run_mapping_flow(g, config);
  // Placement is a permutation of tiles.
  std::set<noc::TileId> tiles(report.placement.begin(),
                              report.placement.end());
  EXPECT_EQ(tiles.size(), report.placement.size());
  EXPECT_TRUE(report.noc_stats.drained);
}

TEST(Flow, PartitionerNames) {
  EXPECT_STREQ(to_string(PartitionerKind::kPso), "pso");
  EXPECT_STREQ(to_string(PartitionerKind::kPacman), "pacman");
  EXPECT_STREQ(to_string(PartitionerKind::kNeutrams), "neutrams");
  EXPECT_STREQ(to_string(PartitionerKind::kAnnealing), "annealing");
  EXPECT_STREQ(to_string(PartitionerKind::kGenetic), "genetic");
}

}  // namespace
}  // namespace snnmap::core
