// Reference implementation of noc::compute_snn_metrics: the version that
// built two counting-sorted copies of the log, kept verbatim as the oracle
// for tests/noc/metrics_oracle_test.cpp.  Where keys tie exactly its
// std::sort order is unspecified, so the oracle logs avoid ties that the
// metrics could observe.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "noc/metrics.hpp"

namespace snnmap::noc::reference {

/// Stable counting-sort of `spikes` by key, scattered into a fresh vector.
/// Used instead of comparison sorts because simulator delivery logs arrive
/// pre-sorted by recv_cycle: a stable pass per remaining key reproduces the
/// exact multi-key order at O(n) instead of O(n log n) over 48-byte
/// elements.
template <typename Key>
inline std::vector<DeliveredSpike> stable_bucket_by(
    const std::vector<DeliveredSpike>& spikes, Key&& key,
    std::size_t key_bound) {
  std::vector<std::size_t> offsets(key_bound + 1, 0);
  for (const DeliveredSpike& s : spikes) {
    ++offsets[static_cast<std::size_t>(key(s)) + 1];
  }
  for (std::size_t k = 1; k <= key_bound; ++k) offsets[k] += offsets[k - 1];
  std::vector<DeliveredSpike> sorted(spikes.size());
  for (const DeliveredSpike& s : spikes) {
    sorted[offsets[static_cast<std::size_t>(key(s))]++] = s;
  }
  return sorted;
}

/// True when a counting pass over ids bounded by `max_key` costs less than
/// a comparison sort of `n` elements would.
inline bool dense_enough(std::uint32_t max_key, std::size_t n) {
  return static_cast<std::uint64_t>(max_key) <
         static_cast<std::uint64_t>(n) * 4 + 1024;
}

inline SnnMetrics compute_snn_metrics(
    const std::vector<DeliveredSpike>& delivery_log) {
  SnnMetrics m;
  m.delivered_spikes = delivery_log.size();
  if (delivery_log.empty()) return m;

  std::uint32_t max_dest = 0;
  std::uint32_t max_neuron = 0;
  for (const DeliveredSpike& s : delivery_log) {
    max_dest = std::max(max_dest, s.dest_tile);
    max_neuron = std::max(max_neuron, s.source_neuron);
  }

  // ---- Spike disorder: per destination, arrival order vs emission order,
  // i.e. sorted by (dest_tile, recv_cycle, emit_cycle).  The bucket pass
  // preserves arrival order inside each destination; only inputs that are
  // not already recv-ordered (handcrafted logs) need the per-bucket sort.
  // Pathologically sparse tile ids (possible for handcrafted logs — the
  // simulator's ids are bounded by tile_count) fall back to the comparison
  // sort, which also avoids the + 1 overflow a UINT32_MAX key would hit.
  // Either way the sorted working copy is built straight from the
  // caller's log, which stays untouched.
  std::vector<DeliveredSpike> delivered;
  if (dense_enough(max_dest, delivery_log.size())) {
    delivered = stable_bucket_by(
        delivery_log, [](const DeliveredSpike& s) { return s.dest_tile; },
        static_cast<std::size_t>(max_dest) + 1);
    const auto recv_emit_less = [](const DeliveredSpike& a,
                                   const DeliveredSpike& b) {
      if (a.recv_cycle != b.recv_cycle) return a.recv_cycle < b.recv_cycle;
      return a.emit_cycle < b.emit_cycle;
    };
    std::size_t i = 0;
    while (i < delivered.size()) {
      std::size_t j = i + 1;
      while (j < delivered.size() &&
             delivered[j].dest_tile == delivered[i].dest_tile) {
        ++j;
      }
      if (!std::is_sorted(delivered.begin() + static_cast<std::ptrdiff_t>(i),
                          delivered.begin() + static_cast<std::ptrdiff_t>(j),
                          recv_emit_less)) {
        std::sort(delivered.begin() + static_cast<std::ptrdiff_t>(i),
                  delivered.begin() + static_cast<std::ptrdiff_t>(j),
                  recv_emit_less);
      }
      i = j;
    }
  } else {
    delivered = delivery_log;
    std::sort(delivered.begin(), delivered.end(),
              [](const DeliveredSpike& a, const DeliveredSpike& b) {
                if (a.dest_tile != b.dest_tile)
                  return a.dest_tile < b.dest_tile;
                if (a.recv_cycle != b.recv_cycle)
                  return a.recv_cycle < b.recv_cycle;
                return a.emit_cycle < b.emit_cycle;
              });
  }
  std::size_t i = 0;
  while (i < delivered.size()) {
    std::size_t j = i;
    std::uint64_t max_step_seen = 0;
    bool first = true;
    while (j < delivered.size() &&
           delivered[j].dest_tile == delivered[i].dest_tile) {
      if (!first && delivered[j].emit_step < max_step_seen) {
        ++m.disordered_spikes;  // an earlier-step spike arrived late
      }
      max_step_seen = std::max(max_step_seen, delivered[j].emit_step);
      first = false;
      ++j;
    }
    i = j;
  }
  m.disorder_fraction = static_cast<double>(m.disordered_spikes) /
                        static_cast<double>(m.delivered_spikes);

  // ---- ISI distortion: per (source neuron, destination) stream, sorted by
  // (source_neuron, dest_tile, sequence).  A stable pass by neuron over the
  // dest-sorted array yields (neuron, dest) grouping directly; only streams
  // where congestion actually reordered arrivals need the per-stream sort.
  if (dense_enough(max_neuron, delivered.size())) {
    delivered = stable_bucket_by(
        delivered, [](const DeliveredSpike& s) { return s.source_neuron; },
        static_cast<std::size_t>(max_neuron) + 1);
    const auto sequence_less = [](const DeliveredSpike& a,
                                  const DeliveredSpike& b) {
      return a.sequence < b.sequence;
    };
    std::size_t i = 0;
    while (i < delivered.size()) {
      std::size_t j = i + 1;
      while (j < delivered.size() &&
             delivered[j].source_neuron == delivered[i].source_neuron &&
             delivered[j].dest_tile == delivered[i].dest_tile) {
        ++j;
      }
      if (!std::is_sorted(delivered.begin() + static_cast<std::ptrdiff_t>(i),
                          delivered.begin() + static_cast<std::ptrdiff_t>(j),
                          sequence_less)) {
        std::sort(delivered.begin() + static_cast<std::ptrdiff_t>(i),
                  delivered.begin() + static_cast<std::ptrdiff_t>(j),
                  sequence_less);
      }
      i = j;
    }
  } else {
    // Pathologically sparse neuron ids: a counting pass would allocate more
    // than the comparison sort costs.
    std::sort(delivered.begin(), delivered.end(),
              [](const DeliveredSpike& a, const DeliveredSpike& b) {
                if (a.source_neuron != b.source_neuron)
                  return a.source_neuron < b.source_neuron;
                if (a.dest_tile != b.dest_tile)
                  return a.dest_tile < b.dest_tile;
                return a.sequence < b.sequence;
              });
  }
  util::Accumulator isi;
  double max_distortion = 0.0;
  for (std::size_t k = 1; k < delivered.size(); ++k) {
    const DeliveredSpike& prev = delivered[k - 1];
    const DeliveredSpike& cur = delivered[k];
    if (prev.source_neuron != cur.source_neuron ||
        prev.dest_tile != cur.dest_tile) {
      continue;
    }
    const double sent_isi = static_cast<double>(cur.emit_cycle) -
                            static_cast<double>(prev.emit_cycle);
    const double recv_isi = static_cast<double>(cur.recv_cycle) -
                            static_cast<double>(prev.recv_cycle);
    const double distortion = std::abs(recv_isi - sent_isi);
    isi.add(distortion);
    max_distortion = std::max(max_distortion, distortion);
  }
  m.isi_pairs = isi.count();
  m.isi_distortion_avg_cycles = isi.mean();
  m.isi_distortion_max_cycles = max_distortion;
  return m;
}

}  // namespace snnmap::noc::reference
