// The systematic partitioning framework of Fig. 4:
//
//   application -> SNN simulation (snn::Simulator, CARLsim stand-in)
//               -> spike graph (snn::SnnGraph)
//               -> partitioner (PSO / PACMAN / NEUTRAMS / SA / GA)
//               -> placement (crossbar -> tile)
//               -> traffic trace -> Noxim++-style NoC simulation
//               -> SNN/hardware performance report.
//
// run_mapping_flow() is the one-call entry point used by the examples and
// every benchmark harness; the intermediate helpers are public so tests can
// exercise each stage in isolation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/annealing.hpp"
#include "core/cost.hpp"
#include "core/genetic.hpp"
#include "core/partition.hpp"
#include "core/placement.hpp"
#include "core/pso.hpp"
#include "hw/architecture.hpp"
#include "hw/energy_model.hpp"
#include "noc/simulator.hpp"
#include "snn/graph.hpp"

namespace snnmap::core {

/// Which partitioner the flow uses.
enum class PartitionerKind : std::uint8_t {
  kPso,       ///< the paper's contribution
  kPacman,    ///< SpiNNaker baseline
  kNeutrams,  ///< ad-hoc baseline
  kAnnealing, ///< ablation
  kGenetic,   ///< ablation
};

const char* to_string(PartitionerKind kind) noexcept;

struct MappingFlowConfig {
  hw::Architecture arch = hw::Architecture::cxquad();
  PartitionerKind partitioner = PartitionerKind::kPso;
  PsoConfig pso;
  AnnealingConfig annealing;
  GeneticConfig genetic;
  /// Interconnect settings.  noc.energy is the single source of truth for
  /// the energy model: the cost model, the NoC simulator and the
  /// co-simulator all read it from here (a separate flow-level copy used to
  /// shadow it and the two could silently diverge).
  noc::NocConfig noc;
  /// Mesh routing algorithm (ignored for tree/ring interconnects).
  noc::MeshRouting mesh_routing = noc::MeshRouting::kXY;
  /// Convenience view of the shared energy model (see noc.energy).
  const hw::EnergyModel& energy() const noexcept { return noc.energy; }
  /// Comm-aware placement (greedy swaps); identity when false (paper setup).
  bool comm_aware_placement = false;
  /// Spread same-millisecond injections over [0, jitter) cycles with a
  /// deterministic per-spike hash, modelling encoder serialization.
  std::uint32_t injection_jitter_cycles = 32;
  std::uint64_t seed = 42;
};

/// Everything the paper reports per (application, mapper) pair.
struct MappingReport {
  Partition partition;
  Placement placement;
  std::uint64_t global_spikes = 0;      ///< per-edge cut (Eq. 8, literal)
  std::uint64_t aer_packets = 0;        ///< AER packets (default objective)
  std::uint64_t local_events = 0;       ///< crossbar synaptic events
  std::uint64_t packets_offered = 0;    ///< multicast traffic events
  double global_energy_pj = 0.0;        ///< from the cycle-accurate NoC run
  double local_energy_pj = 0.0;
  double analytic_global_energy_pj = 0.0;
  noc::NocStats noc_stats;
  noc::SnnMetrics snn_metrics;

  double total_energy_pj() const noexcept {
    return global_energy_pj + local_energy_pj;
  }
  double total_energy_uj() const noexcept { return total_energy_pj() * 1e-6; }
};

/// Runs the configured partitioner; the returned partition is validated.
Partition run_partitioner(const snn::SnnGraph& graph,
                          const MappingFlowConfig& config);

/// Builds the AER traffic trace for a mapped SNN: one multicast event per
/// source-neuron spike whose fan-out leaves its crossbar.  Throws
/// std::invalid_argument unless the partition assigns every neuron of the
/// graph and the placement has one tile per crossbar.
std::vector<noc::SpikePacketEvent> build_traffic(
    const snn::SnnGraph& graph, const Partition& partition,
    const Placement& placement, std::uint32_t cycles_per_ms,
    std::uint32_t jitter_cycles);

/// Full Fig. 4 pipeline from an already-extracted spike graph.
MappingReport run_mapping_flow(const snn::SnnGraph& graph,
                               const MappingFlowConfig& config);

}  // namespace snnmap::core
