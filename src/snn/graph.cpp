#include "snn/graph.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace snnmap::snn {

SnnGraph SnnGraph::from_simulation(const Network& network,
                                   const SimulationResult& result) {
  if (result.spikes.size() != network.neuron_count()) {
    throw std::invalid_argument(
        "SnnGraph: simulation result does not match network size");
  }
  // Collapse parallel synapses; traffic depends only on (pre, post) pairs.
  std::map<std::pair<NeuronId, NeuronId>, double> collapsed;
  for (const auto& s : network.synapses()) {
    collapsed[{s.pre, s.post}] += static_cast<double>(s.weight);
  }
  std::vector<GraphEdge> edges;
  edges.reserve(collapsed.size());
  for (const auto& [key, w] : collapsed) {
    edges.push_back({key.first, key.second, static_cast<float>(w)});
  }
  return from_parts(network.neuron_count(), std::move(edges), result.spikes,
                    result.duration_ms);
}

SnnGraph SnnGraph::from_parts(std::uint32_t neuron_count,
                              std::vector<GraphEdge> edges,
                              std::vector<SpikeTrain> spike_times,
                              TimeMs duration_ms) {
  SnnGraph g;
  g.neuron_count_ = neuron_count;
  g.edges_ = std::move(edges);
  g.spikes_ = std::move(spike_times);
  g.duration_ms_ = duration_ms;
  if (g.spikes_.size() != neuron_count) {
    throw std::invalid_argument("SnnGraph: spike train count != neuron count");
  }
  g.total_spikes_ = 0;
  for (const auto& t : g.spikes_) g.total_spikes_ += t.size();
  g.validate();
  g.build_fanout();
  return g;
}

void SnnGraph::validate() const {
  for (const auto& e : edges_) {
    if (e.pre >= neuron_count_ || e.post >= neuron_count_) {
      throw std::invalid_argument("SnnGraph: edge endpoint out of range");
    }
  }
  for (const auto& t : spikes_) {
    if (!is_valid_train(t)) {
      throw std::invalid_argument("SnnGraph: unsorted or negative spike train");
    }
  }
}

void SnnGraph::build_fanout() {
  // Distinct (pre -> post) targets, CSR over pre.
  std::vector<std::pair<NeuronId, NeuronId>> pairs;
  pairs.reserve(edges_.size());
  for (const auto& e : edges_) pairs.emplace_back(e.pre, e.post);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  fanout_offsets_.assign(neuron_count_ + 1, 0);
  for (const auto& [pre, post] : pairs) ++fanout_offsets_[pre + 1];
  for (std::size_t i = 1; i < fanout_offsets_.size(); ++i) {
    fanout_offsets_[i] += fanout_offsets_[i - 1];
  }
  fanout_targets_.resize(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    fanout_targets_[i] = pairs[i].second;  // pairs already sorted by pre
  }
}

double SnnGraph::mean_rate_hz() const noexcept {
  if (neuron_count_ == 0 || duration_ms_ <= 0.0) return 0.0;
  return static_cast<double>(total_spikes_) /
         static_cast<double>(neuron_count_) / duration_ms_ * 1000.0;
}

}  // namespace snnmap::snn
