#include "snn/spike_train.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace snnmap::snn {

bool is_valid_train(const SpikeTrain& train) {
  if (!train.empty() && train.front() < 0.0) return false;
  return std::is_sorted(train.begin(), train.end());
}

std::vector<SpikeTrain> trains_from_events(
    std::size_t neuron_count, const std::vector<SpikeEvent>& events) {
  std::vector<SpikeTrain> trains(neuron_count);
  std::vector<std::size_t> counts(neuron_count, 0);
  for (const SpikeEvent& e : events) ++counts[e.neuron];
  for (std::size_t i = 0; i < neuron_count; ++i) {
    trains[i].reserve(counts[i]);
  }
  for (const SpikeEvent& e : events) {
    trains[e.neuron].push_back(e.time_ms);
  }
  return trains;
}

std::vector<double> inter_spike_intervals(const SpikeTrain& train) {
  std::vector<double> isis;
  if (train.size() < 2) return isis;
  isis.reserve(train.size() - 1);
  for (std::size_t i = 1; i < train.size(); ++i) {
    isis.push_back(train[i] - train[i - 1]);
  }
  return isis;
}

double mean_rate_hz(const SpikeTrain& train, TimeMs duration_ms) {
  if (duration_ms <= 0.0) return 0.0;
  return static_cast<double>(train.size()) / duration_ms * 1000.0;
}

std::size_t spikes_in_window(const SpikeTrain& train, TimeMs t0, TimeMs t1) {
  const auto lo = std::lower_bound(train.begin(), train.end(), t0);
  const auto hi = std::lower_bound(train.begin(), train.end(), t1);
  return static_cast<std::size_t>(hi - lo);
}

double isi_coefficient_of_variation(const SpikeTrain& train) {
  const auto isis = inter_spike_intervals(train);
  if (isis.size() < 2) return 0.0;
  util::Accumulator acc;
  for (double isi : isis) acc.add(isi);
  if (acc.mean() <= 0.0) return 0.0;
  return acc.stddev() / acc.mean();
}

SpikeTrain merge_trains(const SpikeTrain& a, const SpikeTrain& b) {
  SpikeTrain out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace snnmap::snn
