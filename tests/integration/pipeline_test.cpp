// End-to-end pipeline tests: application builders -> spike graph ->
// partitioners -> NoC simulation -> metrics, on the real workloads (scaled
// down in duration to keep CI time reasonable).
#include <gtest/gtest.h>

#include "apps/heartbeat.hpp"
#include "apps/hello_world.hpp"
#include "apps/synthetic.hpp"
#include "core/framework.hpp"

namespace snnmap {
namespace {

TEST(Pipeline, HelloWorldOnCxquad) {
  apps::HelloWorldConfig app;
  app.duration_ms = 300.0;
  const auto graph = apps::build_hello_world(app);

  core::MappingFlowConfig config;
  config.arch = hw::Architecture::cxquad();
  config.arch.neurons_per_crossbar = 64;  // force multi-crossbar mapping
  config.pso.swarm_size = 20;
  config.pso.iterations = 20;

  config.partitioner = core::PartitionerKind::kPso;
  const auto pso = core::run_mapping_flow(graph, config);
  config.partitioner = core::PartitionerKind::kPacman;
  const auto pacman = core::run_mapping_flow(graph, config);
  config.partitioner = core::PartitionerKind::kNeutrams;
  const auto neutrams = core::run_mapping_flow(graph, config);

  // Fig. 5 ordering on the energy axis.  PSO strictly dominates; PACMAN vs
  // NEUTRAMS is allowed a 15% band here because HW's offset one-to-one
  // connectivity is a near-worst case for contiguous fill (see
  // EXPERIMENTS.md, deviations).
  EXPECT_LE(pso.global_energy_pj, pacman.global_energy_pj);
  EXPECT_LE(pacman.global_energy_pj, neutrams.global_energy_pj * 1.15);
  EXPECT_TRUE(pso.noc_stats.drained);
  EXPECT_TRUE(neutrams.noc_stats.drained);
}

TEST(Pipeline, SyntheticEnergyConservation) {
  apps::SyntheticConfig app;
  app.layers = 2;
  app.neurons_per_layer = 60;
  app.duration_ms = 200.0;
  const auto graph = apps::build_synthetic(app);

  core::MappingFlowConfig config;
  config.arch = hw::Architecture::sized_for(graph.neuron_count(), 40,
                                            hw::InterconnectKind::kTree);
  config.partitioner = core::PartitionerKind::kPacman;
  const auto report = core::run_mapping_flow(graph, config);

  // Local + global events account for every synaptic event exactly.
  EXPECT_EQ(report.global_spikes + report.local_events,
            core::CostModel(graph).total_event_count());
  // The NoC actually carried the multicast packets derived from the cut.
  EXPECT_EQ(report.noc_stats.packets_injected, report.packets_offered);
  // Analytic estimate within 2x of the cycle-accurate energy (same model,
  // no contention in the analytic path).
  if (report.global_energy_pj > 0.0) {
    const double ratio =
        report.analytic_global_energy_pj / report.global_energy_pj;
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.0);
  }
}

TEST(Pipeline, TemporalWorkloadIsiDegradesWithCongestion) {
  // Shrinking the NoC buffers and spreading the LSM across tiny crossbars
  // increases congestion; ISI distortion must respond (weak monotonicity:
  // congested >= relaxed).
  apps::HeartbeatConfig app;
  app.duration_ms = 1500.0;
  const auto graph = apps::build_heartbeat(app);

  core::MappingFlowConfig relaxed;
  relaxed.arch = hw::Architecture::sized_for(graph.neuron_count(), 64,
                                             hw::InterconnectKind::kTree);
  relaxed.partitioner = core::PartitionerKind::kPso;
  relaxed.pso.swarm_size = 20;
  relaxed.pso.iterations = 20;

  core::MappingFlowConfig congested = relaxed;
  congested.arch = hw::Architecture::sized_for(graph.neuron_count(), 8,
                                               hw::InterconnectKind::kTree);
  congested.partitioner = core::PartitionerKind::kNeutrams;
  congested.noc.buffer_depth = 1;

  const auto relaxed_report = core::run_mapping_flow(graph, relaxed);
  const auto congested_report = core::run_mapping_flow(graph, congested);
  EXPECT_GE(congested_report.snn_metrics.isi_distortion_avg_cycles,
            relaxed_report.snn_metrics.isi_distortion_avg_cycles);
  EXPECT_GE(congested_report.noc_stats.max_latency_cycles,
            relaxed_report.noc_stats.max_latency_cycles);
}

TEST(Pipeline, MeshAndTreeBothCarryTheSameWorkload) {
  apps::SyntheticConfig app;
  app.layers = 2;
  app.neurons_per_layer = 40;
  app.duration_ms = 150.0;
  const auto graph = apps::build_synthetic(app);

  for (const auto kind :
       {hw::InterconnectKind::kMesh, hw::InterconnectKind::kTree,
        hw::InterconnectKind::kRing}) {
    core::MappingFlowConfig config;
    config.arch = hw::Architecture::sized_for(graph.neuron_count(), 30, kind);
    config.partitioner = core::PartitionerKind::kPacman;
    const auto report = core::run_mapping_flow(graph, config);
    EXPECT_TRUE(report.noc_stats.drained) << hw::to_string(kind);
    EXPECT_EQ(report.noc_stats.packets_injected, report.packets_offered);
  }
}

}  // namespace
}  // namespace snnmap
