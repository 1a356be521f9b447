// Spike-annotated SNN graph G = (A, S) — Sec. III of the paper.
//
// "Each synapse s_ij is a tuple <a_i, a_j, T_ij> where T_ij are the spike
// times of the pre-synaptic neuron a_i.  This graph represents initial
// specification of a trained SNN in terms of synaptic weights and spike
// times.  This graph is generated from CARLsim."
//
// Here it is generated from the Simulator; spike times are stored once per
// pre neuron (all outgoing synapses of a neuron share its train) to keep the
// representation compact for 1M+-synapse networks.
#pragma once

#include <cstdint>
#include <vector>

#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "snn/spike_train.hpp"

namespace snnmap::snn {

/// One directed edge of the graph.
struct GraphEdge {
  NeuronId pre = kInvalidNeuron;
  NeuronId post = kInvalidNeuron;
  float weight = 0.0F;
};

/// Immutable mapping input: topology + per-neuron spike trains.
class SnnGraph {
 public:
  SnnGraph() = default;

  /// Builds from a network and the simulation that exercised it.
  /// Parallel synapses between the same (pre, post) pair are collapsed into
  /// one edge (their weights summed); traffic is per pre-neuron spike anyway.
  static SnnGraph from_simulation(const Network& network,
                                  const SimulationResult& result);

  /// Builds a graph directly (tests / synthetic workloads without dynamics).
  static SnnGraph from_parts(std::uint32_t neuron_count,
                             std::vector<GraphEdge> edges,
                             std::vector<SpikeTrain> spike_times,
                             TimeMs duration_ms);

  std::uint32_t neuron_count() const noexcept { return neuron_count_; }
  std::size_t edge_count() const noexcept { return edges_.size(); }
  const std::vector<GraphEdge>& edges() const noexcept { return edges_; }
  TimeMs duration_ms() const noexcept { return duration_ms_; }

  const SpikeTrain& spike_train(NeuronId i) const { return spikes_.at(i); }
  const std::vector<SpikeTrain>& spike_trains() const noexcept {
    return spikes_;
  }
  std::uint64_t spike_count(NeuronId i) const { return spikes_.at(i).size(); }
  std::uint64_t total_spikes() const noexcept { return total_spikes_; }

  /// Distinct post-synaptic neurons per pre neuron (CSR).
  const std::vector<std::uint32_t>& fanout_offsets() const noexcept {
    return fanout_offsets_;
  }
  const std::vector<NeuronId>& fanout_targets() const noexcept {
    return fanout_targets_;
  }
  /// Fan-out degree of a neuron (distinct targets).
  std::uint32_t fanout_degree(NeuronId i) const {
    return fanout_offsets_.at(i + 1) - fanout_offsets_.at(i);
  }

  /// Mean firing rate over all neurons in Hz.
  double mean_rate_hz() const noexcept;

 private:
  void build_fanout();
  void validate() const;

  std::uint32_t neuron_count_ = 0;
  std::vector<GraphEdge> edges_;
  std::vector<SpikeTrain> spikes_;
  TimeMs duration_ms_ = 0.0;
  std::uint64_t total_spikes_ = 0;
  std::vector<std::uint32_t> fanout_offsets_;
  std::vector<NeuronId> fanout_targets_;
};

}  // namespace snnmap::snn
