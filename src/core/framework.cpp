#include "core/framework.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/neutrams.hpp"
#include "core/pacman.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace snnmap::core {

const char* to_string(PartitionerKind kind) noexcept {
  switch (kind) {
    case PartitionerKind::kPso: return "pso";
    case PartitionerKind::kPacman: return "pacman";
    case PartitionerKind::kNeutrams: return "neutrams";
    case PartitionerKind::kAnnealing: return "annealing";
    case PartitionerKind::kGenetic: return "genetic";
  }
  return "?";
}

Partition run_partitioner(const snn::SnnGraph& graph,
                          const MappingFlowConfig& config) {
  switch (config.partitioner) {
    case PartitionerKind::kPso: {
      PsoConfig pso = config.pso;
      pso.seed = config.seed;
      return PsoPartitioner(graph, config.arch, pso).optimize().best;
    }
    case PartitionerKind::kPacman:
      return pacman_partition(graph, config.arch);
    case PartitionerKind::kNeutrams:
      return neutrams_partition(graph, config.arch);
    case PartitionerKind::kAnnealing: {
      AnnealingConfig sa = config.annealing;
      sa.seed = config.seed;
      return annealing_partition(graph, config.arch, sa).best;
    }
    case PartitionerKind::kGenetic: {
      GeneticConfig ga = config.genetic;
      ga.seed = config.seed;
      return genetic_partition(graph, config.arch, ga).best;
    }
  }
  throw std::logic_error("run_partitioner: unknown partitioner kind");
}

std::vector<noc::SpikePacketEvent> build_traffic(
    const snn::SnnGraph& graph, const Partition& partition,
    const Placement& placement, std::uint32_t cycles_per_ms,
    std::uint32_t jitter_cycles) {
  if (partition.neuron_count() != graph.neuron_count()) {
    throw std::invalid_argument(
        "build_traffic: partition covers " +
        std::to_string(partition.neuron_count()) + " neurons, graph has " +
        std::to_string(graph.neuron_count()));
  }
  if (!partition.is_complete()) {
    throw std::invalid_argument(
        "build_traffic: partition must assign every neuron");
  }
  if (placement.size() != partition.crossbar_count()) {
    throw std::invalid_argument("build_traffic: placement size mismatch");
  }
  std::vector<noc::SpikePacketEvent> traffic;
  const auto& part = partition.assignment();
  const auto& offsets = graph.fanout_offsets();
  const auto& targets = graph.fanout_targets();
  // seen[c] == i + 1 once neuron i's fan-out has listed crossbar c, so
  // each remote crossbar is listed once per neuron.
  std::vector<std::uint32_t> seen(partition.crossbar_count(), 0);
  std::vector<CrossbarId> remote;
  for (std::uint32_t i = 0; i < graph.neuron_count(); ++i) {
    const auto& train = graph.spike_train(i);
    if (train.empty()) continue;
    remote.clear();
    for (std::uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const CrossbarId c = part[targets[k]];
      if (c != part[i] && seen[c] != i + 1) {
        seen[c] = i + 1;
        remote.push_back(c);
      }
    }
    if (remote.empty()) continue;  // purely local fan-out
    std::vector<noc::TileId> dest_tiles;
    dest_tiles.reserve(remote.size());
    for (const CrossbarId c : remote) dest_tiles.push_back(placement[c]);
    std::sort(dest_tiles.begin(), dest_tiles.end());
    for (std::size_t s = 0; s < train.size(); ++s) {
      noc::SpikePacketEvent ev;
      ev.source_neuron = i;
      ev.source_tile = placement[part[i]];
      // Spike at t ms enters the encoder at cycle t * cycles_per_ms.
      const auto base = static_cast<std::uint64_t>(
          std::floor(train[s] * static_cast<double>(cycles_per_ms)));
      const std::uint64_t jitter =
          jitter_cycles ? util::spike_jitter_hash(i, s) % jitter_cycles : 0;
      ev.emit_cycle = base + jitter;
      // The SNN step index; same-step spikes are unordered for the
      // disorder metric.
      ev.emit_step = static_cast<std::uint64_t>(std::floor(train[s]));
      ev.dest_tiles = dest_tiles;
      traffic.push_back(std::move(ev));
    }
  }
  return traffic;
}

MappingReport run_mapping_flow(const snn::SnnGraph& graph,
                               const MappingFlowConfig& config) {
  MappingReport report;
  report.partition = run_partitioner(graph, config);
  report.partition.validate(config.arch);

  noc::Topology topology = noc::Topology::for_architecture(config.arch);
  if (config.arch.interconnect == hw::InterconnectKind::kMesh) {
    topology.set_mesh_routing(config.mesh_routing);
  }
  CostModel cost(graph);
  if (config.comm_aware_placement) {
    report.placement = greedy_placement(cost.traffic_matrix(report.partition),
                                        config.arch.crossbar_count, topology);
  } else {
    report.placement =
        identity_placement(config.arch.crossbar_count, topology);
  }

  report.global_spikes = cost.global_spike_count(report.partition);
  report.aer_packets = cost.multicast_packet_count(report.partition);
  report.local_events = cost.local_event_count(report.partition);
  report.local_energy_pj =
      cost.local_energy_pj(report.partition, config.energy());
  report.analytic_global_energy_pj = cost.analytic_global_energy_pj(
      report.partition, topology, report.placement, config.energy(),
      config.noc.multicast);

  auto traffic = build_traffic(graph, report.partition, report.placement,
                               config.arch.cycles_per_ms,
                               config.injection_jitter_cycles);
  report.packets_offered = traffic.size();

  noc::NocSimulator sim(std::move(topology), config.noc);
  noc::NocRunResult run = sim.run(std::move(traffic));
  report.noc_stats = run.stats;
  report.snn_metrics = run.snn;
  report.global_energy_pj = run.stats.global_energy_pj;

  util::log_info("flow[", to_string(config.partitioner), "]: F=",
                 report.global_spikes, " spikes, global E=",
                 report.global_energy_pj * 1e-6, " uJ, max latency=",
                 report.noc_stats.max_latency_cycles, " cycles");
  return report;
}

}  // namespace snnmap::core
