#include "snn/graph.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
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
  std::vector<std::string> names;
  std::vector<std::uint32_t> firsts;
  for (const auto& g : network.groups()) {
    names.push_back(g.name);
    firsts.push_back(g.first);
  }
  firsts.push_back(network.neuron_count());
  return from_parts(network.neuron_count(), std::move(edges), result.spikes,
                    result.duration_ms, std::move(names), std::move(firsts));
}

SnnGraph SnnGraph::from_parts(std::uint32_t neuron_count,
                              std::vector<GraphEdge> edges,
                              std::vector<SpikeTrain> spike_times,
                              TimeMs duration_ms,
                              std::vector<std::string> group_names,
                              std::vector<std::uint32_t> group_first) {
  SnnGraph g;
  g.neuron_count_ = neuron_count;
  g.edges_ = std::move(edges);
  g.spikes_ = std::move(spike_times);
  g.duration_ms_ = duration_ms;
  g.group_names_ = std::move(group_names);
  g.group_first_ = std::move(group_first);
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
  if (!group_first_.empty()) {
    if (group_first_.size() != group_names_.size() + 1 ||
        group_first_.back() != neuron_count_) {
      throw std::invalid_argument("SnnGraph: malformed group annotations");
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

void SnnGraph::save(std::ostream& out) const {
  out << "snngraph 1\n";
  out << neuron_count_ << ' ' << edges_.size() << ' ' << duration_ms_ << '\n';
  out << group_names_.size() << '\n';
  for (std::size_t g = 0; g < group_names_.size(); ++g) {
    out << group_first_[g] << ' ' << group_names_[g] << '\n';
  }
  for (const auto& e : edges_) {
    out << e.pre << ' ' << e.post << ' ' << e.weight << '\n';
  }
  for (const auto& train : spikes_) {
    out << train.size();
    for (double t : train) out << ' ' << t;
    out << '\n';
  }
}

SnnGraph SnnGraph::load(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "snngraph" || version != 1) {
    throw std::runtime_error("SnnGraph: bad header");
  }
  std::uint32_t n = 0;
  std::size_t e = 0;
  TimeMs duration = 0.0;
  if (!(in >> n >> e >> duration)) {
    throw std::runtime_error("SnnGraph: bad size line");
  }
  // The counts come from the stream: every record is read before it is
  // stored, so a corrupt count fails as truncation instead of sizing an
  // allocation.
  std::size_t ngroups = 0;
  in >> ngroups;
  std::vector<std::string> names;
  std::vector<std::uint32_t> firsts;
  for (std::size_t g = 0; g < ngroups; ++g) {
    std::uint32_t first = 0;
    std::string name;
    if (!(in >> first)) {
      throw std::runtime_error("SnnGraph: truncated group list");
    }
    in >> std::ws;
    std::getline(in, name);
    firsts.push_back(first);
    names.push_back(std::move(name));
  }
  if (ngroups) firsts.push_back(n);
  std::vector<GraphEdge> edges;
  for (std::size_t k = 0; k < e; ++k) {
    GraphEdge edge;
    if (!(in >> edge.pre >> edge.post >> edge.weight)) {
      throw std::runtime_error("SnnGraph: truncated edge list");
    }
    edges.push_back(edge);
  }
  std::vector<SpikeTrain> trains;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::size_t count = 0;
    if (!(in >> count)) throw std::runtime_error("SnnGraph: truncated trains");
    SpikeTrain& train = trains.emplace_back();
    for (std::size_t s = 0; s < count; ++s) {
      TimeMs t = 0.0;
      if (!(in >> t)) throw std::runtime_error("SnnGraph: truncated train");
      train.push_back(t);
    }
  }
  return from_parts(n, std::move(edges), std::move(trains), duration,
                    std::move(names), std::move(firsts));
}

}  // namespace snnmap::snn
