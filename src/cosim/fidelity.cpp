#include "cosim/fidelity.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace snnmap::cosim {

double FidelityReport::miss_fraction() const noexcept {
  if (copies_offered == 0) return 0.0;
  return static_cast<double>(deadline_misses + receive_drops + undelivered) /
         static_cast<double>(copies_offered);
}

double FidelityReport::drop_fraction() const noexcept {
  if (copies_offered == 0) return 0.0;
  return static_cast<double>(receive_drops) /
         static_cast<double>(copies_offered);
}

double SpikeDivergence::fraction() const noexcept {
  const std::uint64_t uni = matched + only_ideal + only_cosim;
  if (uni == 0) return 0.0;
  return static_cast<double>(only_ideal + only_cosim) /
         static_cast<double>(uni);
}

SpikeDivergence spike_divergence(const std::vector<snn::SpikeTrain>& ideal,
                                 const std::vector<snn::SpikeTrain>& cosim) {
  if (ideal.size() != cosim.size()) {
    throw std::invalid_argument(
        "spike_divergence: neuron counts differ (" +
        std::to_string(ideal.size()) + " vs " + std::to_string(cosim.size()) +
        ")");
  }
  SpikeDivergence d;
  for (std::size_t i = 0; i < ideal.size(); ++i) {
    const snn::SpikeTrain& a = ideal[i];
    const snn::SpikeTrain& b = cosim[i];
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < a.size() && ib < b.size()) {
      if (a[ia] == b[ib]) {
        ++d.matched;
        ++ia;
        ++ib;
      } else if (a[ia] < b[ib]) {
        ++d.only_ideal;
        ++ia;
      } else {
        ++d.only_cosim;
        ++ib;
      }
    }
    d.only_ideal += a.size() - ia;
    d.only_cosim += b.size() - ib;
  }
  return d;
}

snn::SnnGraph observed_graph_from_noc(
    const snn::SnnGraph& analytic, const core::Partition& partition,
    const core::Placement& placement,
    const std::vector<noc::DeliveredSpike>& delivered,
    std::uint32_t cycles_per_ms) {
  if (partition.neuron_count() != analytic.neuron_count()) {
    throw std::invalid_argument(
        "observed_graph_from_noc: partition size mismatch");
  }
  if (placement.size() != partition.crossbar_count()) {
    throw std::invalid_argument(
        "observed_graph_from_noc: placement size mismatch");
  }
  if (cycles_per_ms == 0) {
    throw std::invalid_argument(
        "observed_graph_from_noc: cycles_per_ms must be >= 1");
  }

  // First-copy arrival per (source, packet): the earliest recv_cycle over
  // the packet's destination copies, keyed by the per-source sequence
  // number the NoC assigns in emission order.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> arrivals(
      analytic.neuron_count());
  for (const noc::DeliveredSpike& d : delivered) {
    if (d.source_neuron >= analytic.neuron_count()) {
      throw std::invalid_argument(
          "observed_graph_from_noc: delivery for unknown source neuron");
    }
    auto& per_source = arrivals[d.source_neuron];
    if (!per_source.empty() && per_source.back().first == d.sequence) {
      per_source.back().second =
          std::min(per_source.back().second, d.recv_cycle);
    } else {
      // Copies of one packet are not necessarily adjacent in the log;
      // handle out-of-order sequences below with a sort + merge.
      per_source.emplace_back(d.sequence, d.recv_cycle);
    }
  }

  std::vector<snn::SpikeTrain> trains(analytic.spike_trains());
  const double duration = analytic.duration_ms();
  for (std::uint32_t i = 0; i < analytic.neuron_count(); ++i) {
    auto& per_source = arrivals[i];
    if (per_source.empty()) continue;  // purely local: keep analytic train
    std::sort(per_source.begin(), per_source.end());
    snn::SpikeTrain train;
    train.reserve(per_source.size());
    std::size_t k = 0;
    while (k < per_source.size()) {
      std::uint64_t earliest = per_source[k].second;
      const std::uint32_t seq = per_source[k].first;
      while (k < per_source.size() && per_source[k].first == seq) {
        earliest = std::min(earliest, per_source[k].second);
        ++k;
      }
      const double t = std::min(
          duration,
          static_cast<double>(earliest) / static_cast<double>(cycles_per_ms));
      train.push_back(t);
    }
    std::sort(train.begin(), train.end());
    trains[i] = std::move(train);
  }

  return snn::SnnGraph::from_parts(analytic.neuron_count(), analytic.edges(),
                                   std::move(trains), analytic.duration_ms());
}

}  // namespace snnmap::cosim
