// Spike-communication cost model — Eqs. 6–8 of the paper.
//
// The PSO fitness F is the total number of spikes crossing crossbar
// boundaries: for every synapse (i, j) with partition(i) != partition(j),
// the pre neuron's spike count |T_i| is charged (Eq. 7), summed over all
// crossbar pairs (Eq. 8).  The model also provides:
//   * the multicast packet count (one AER packet per spike per *distinct*
//     remote crossbar — what the NoC actually carries),
//   * local synaptic event counts (crossbar energy),
//   * an analytic energy estimate used for quick exploration, and
//   * O(degree) per-crossbar tallies of a neuron's incident spikes for the
//     PSO capacity repair.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partition.hpp"
#include "hw/energy_model.hpp"
#include "noc/topology.hpp"
#include "snn/graph.hpp"

namespace snnmap::core {

/// What the optimizers minimize.  Eq. 7's summation is ambiguous about
/// whether a pre neuron with several synapses into one remote crossbar is
/// charged once or per synapse; under the AER protocol the hardware sends
/// *one* packet per spike per distinct remote crossbar, so kAerPackets is
/// the faithful reading for a multicast interconnect (and the default).
/// kCutSpikes is the literal per-edge reading, kept for comparison.
enum class Objective : std::uint8_t { kAerPackets, kCutSpikes };

const char* to_string(Objective objective) noexcept;

/// Immutable once built: every method is const and touches no hidden
/// state, so one model is shared read-only by any number of threads (the
/// optimizers' worker pools evaluate fitness against a single instance).
class CostModel {
 public:
  explicit CostModel(const snn::SnnGraph& graph);

  const snn::SnnGraph& graph() const noexcept { return graph_; }

  /// Eq. 8: total spikes on the global synapse interconnect.
  std::uint64_t global_spike_count(const Partition& partition) const;

  /// Eq. 8 over a raw assignment vector (hot path for the optimizers).
  std::uint64_t global_spike_count(
      const std::vector<CrossbarId>& assignment) const;

  /// Adds to `spikes_on[k]` the spikes of every edge between `neuron` and
  /// a neighbor assigned to crossbar k; neighbors still unassigned
  /// (kUnassigned) are skipped.  Placing `neuron` on k cuts every other
  /// incident spike, so the largest tally marks the cheapest crossbar.
  /// One pass over the neuron's incidence, O(degree); `spikes_on` holds an
  /// entry per crossbar.  Used by the PSO capacity-repair operator.
  void tally_incident_spikes(const std::vector<CrossbarId>& assignment,
                             std::uint32_t neuron,
                             std::vector<std::uint64_t>& spikes_on) const;

  /// Eq. 7 restricted to one ordered crossbar pair (k1 -> k2).
  std::uint64_t spikes_between(const Partition& partition, CrossbarId k1,
                               CrossbarId k2) const;

  /// AER packets under router-level multicast: per neuron spike, one packet
  /// per distinct remote destination crossbar.
  std::uint64_t multicast_packet_count(const Partition& partition) const;
  std::uint64_t multicast_packet_count(
      const std::vector<CrossbarId>& assignment) const;

  /// Dispatches on the objective (hot path for the optimizers).
  std::uint64_t objective_cost(const std::vector<CrossbarId>& assignment,
                               Objective objective) const;

  /// Synaptic events served inside crossbars (local synapses).
  std::uint64_t local_event_count(const Partition& partition) const;

  /// Total synaptic events (partition-independent): sum over synapses of the
  /// pre neuron's spike count.
  std::uint64_t total_event_count() const noexcept { return total_events_; }

  /// Static analytic estimate of global-synapse energy, charge-for-charge
  /// aligned with the cycle-accurate NocSimulator accounting: encode at the
  /// source, link + upstream-switch energy per multicast-tree edge (shared
  /// path prefixes charged once), and ejection switch + decode per
  /// destination copy.  Reproduces the simulated NocStats::global_energy_pj
  /// on drained runs (pinned by the parity tests): every routing algorithm
  /// is minimal, so congestion (or adaptive selection) shifts *which* links
  /// a flit takes but never the activity counts — energy is unchanged, only
  /// timing degrades.
  double analytic_global_energy_pj(const Partition& partition,
                                   const noc::Topology& topology,
                                   const std::vector<noc::TileId>& placement,
                                   const hw::EnergyModel& energy,
                                   bool multicast = true) const;

  /// Local (crossbar) energy in pJ.
  double local_energy_pj(const Partition& partition,
                         const hw::EnergyModel& energy) const;

  /// Symmetric traffic matrix between crossbars (spike counts), flattened
  /// row-major [k1 * C + k2]; used by communication-aware placement.
  std::vector<std::uint64_t> traffic_matrix(const Partition& partition) const;

 private:
  struct WeightedEdge {
    std::uint32_t pre, post;
    std::uint64_t spikes;  ///< |T_pre|
  };

  const snn::SnnGraph& graph_;
  std::vector<WeightedEdge> edges_;
  // CSR adjacency over undirected incidence for tally_incident_spikes: for
  // neuron n, (other endpoint, charged spikes) of every non-self-loop edge
  // touching n.
  std::vector<std::uint32_t> adj_offsets_;
  std::vector<std::uint32_t> adj_other_;
  std::vector<std::uint64_t> adj_spikes_;
  std::uint64_t total_events_ = 0;
};

}  // namespace snnmap::core
