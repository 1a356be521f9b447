// Oracle test for compute_snn_metrics: on seeded random delivery logs the
// log-order scan must reproduce the reference counting-sort implementation
// (metrics_reference.hpp) bit for bit in all six SnnMetrics fields.  The
// logs cover recv-ordered and shuffled logs, streams whose arrivals go out
// of sequence, many copies per tile per cycle, and ids up to UINT32_MAX.
// The reference's std::sort leaves exact key ties unspecified, so the
// generator never makes a tie the metrics could observe: emit_step follows
// emit_cycle, and a neuron's emissions have distinct cycles and sequence
// numbers.  The tie rule the scan defines is pinned separately.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "metrics_reference.hpp"
#include "noc/metrics.hpp"
#include "util/rng.hpp"

namespace snnmap::noc {
namespace {

constexpr std::uint32_t kMaxId = std::numeric_limits<std::uint32_t>::max();

struct LogShape {
  std::uint32_t neurons = 8;
  std::uint32_t tiles = 4;
  std::uint32_t emissions = 200;
  std::uint64_t max_gap = 20;       ///< cycles between a neuron's emissions
  std::uint64_t max_latency = 10;   ///< copy latency is 1 + below(this)
  std::uint64_t cycles_per_step = 16;
  std::uint64_t recv_quantum = 1;   ///< recv cycles rounded up to this
  /// Non-empty: neuron / tile index i is reported as ids[i % size].
  std::vector<std::uint32_t> neuron_ids;
  std::vector<std::uint32_t> tile_ids;
};

/// One copy per (emission, destination), in generation order.
std::vector<DeliveredSpike> generate(const LogShape& shape,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> next_emit(shape.neurons, 0);
  std::vector<std::uint32_t> sequence(shape.neurons, 0);
  const auto id = [](const std::vector<std::uint32_t>& ids, std::uint32_t i) {
    return ids.empty() ? i : ids[i % ids.size()];
  };
  std::vector<DeliveredSpike> log;
  for (std::uint32_t e = 0; e < shape.emissions; ++e) {
    const auto neuron = static_cast<std::uint32_t>(rng.below(shape.neurons));
    next_emit[neuron] += 1 + rng.below(shape.max_gap);
    const std::uint64_t emit = next_emit[neuron];
    const std::uint32_t seq = sequence[neuron]++;
    // Distinct destinations per emission, at least one.
    const auto first = static_cast<std::uint32_t>(rng.below(shape.tiles));
    for (std::uint32_t t = 0; t < shape.tiles; ++t) {
      if (t != first && !rng.chance(0.4)) continue;
      DeliveredSpike d;
      d.source_neuron = id(shape.neuron_ids, neuron);
      d.source_tile = static_cast<TileId>(neuron % 7);
      d.dest_tile = id(shape.tile_ids, t);
      d.emit_cycle = emit;
      d.emit_step = emit / shape.cycles_per_step;
      const std::uint64_t recv = emit + 1 + rng.below(shape.max_latency);
      d.recv_cycle = (recv + shape.recv_quantum - 1) / shape.recv_quantum *
                     shape.recv_quantum;
      d.sequence = seq;
      log.push_back(d);
    }
  }
  return log;
}

void sort_by_recv(std::vector<DeliveredSpike>& log) {
  std::stable_sort(log.begin(), log.end(),
                   [](const DeliveredSpike& a, const DeliveredSpike& b) {
                     return a.recv_cycle < b.recv_cycle;
                   });
}

/// True when some (neuron, dest) stream's sequence goes back in log order.
bool has_out_of_sequence_stream(std::vector<DeliveredSpike> log) {
  std::stable_sort(log.begin(), log.end(),
                   [](const DeliveredSpike& a, const DeliveredSpike& b) {
                     return std::tie(a.source_neuron, a.dest_tile) <
                            std::tie(b.source_neuron, b.dest_tile);
                   });
  for (std::size_t k = 1; k < log.size(); ++k) {
    if (log[k].source_neuron == log[k - 1].source_neuron &&
        log[k].dest_tile == log[k - 1].dest_tile &&
        log[k].sequence < log[k - 1].sequence) {
      return true;
    }
  }
  return false;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_matches_reference(const std::vector<DeliveredSpike>& log) {
  const SnnMetrics want = reference::compute_snn_metrics(log);
  const SnnMetrics got = compute_snn_metrics(log);
  EXPECT_EQ(bits(got.isi_distortion_avg_cycles),
            bits(want.isi_distortion_avg_cycles));
  EXPECT_EQ(bits(got.isi_distortion_max_cycles),
            bits(want.isi_distortion_max_cycles));
  EXPECT_EQ(bits(got.disorder_fraction), bits(want.disorder_fraction));
  EXPECT_EQ(got.disordered_spikes, want.disordered_spikes);
  EXPECT_EQ(got.delivered_spikes, want.delivered_spikes);
  EXPECT_EQ(got.isi_pairs, want.isi_pairs);
}

/// Shapes from a single stream up to thousands of neurons, so the scan
/// runs both on raw ids and on ranked ones.
std::vector<LogShape> shapes() {
  std::vector<LogShape> out;
  for (const std::uint32_t neurons : {1u, 3u, 40u, 600u, 20000u}) {
    for (const std::uint32_t tiles : {1u, 5u, 64u}) {
      LogShape s;
      s.neurons = neurons;
      s.tiles = tiles;
      s.emissions = 50 + 13 * neurons % 700;
      out.push_back(s);
    }
  }
  return out;
}

TEST(SnnMetricsOracle, RecvOrderedLogs) {
  for (const LogShape& shape : shapes()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::to_string(shape.neurons) + " neurons, " +
                   std::to_string(shape.tiles) + " tiles, seed " +
                   std::to_string(seed));
      auto log = generate(shape, seed);
      sort_by_recv(log);
      expect_matches_reference(log);
    }
  }
}

TEST(SnnMetricsOracle, ShuffledLogs) {
  for (const LogShape& shape : shapes()) {
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
      SCOPED_TRACE(std::to_string(shape.neurons) + " neurons, " +
                   std::to_string(shape.tiles) + " tiles, seed " +
                   std::to_string(seed));
      auto log = generate(shape, seed);
      util::Rng rng(seed);
      rng.shuffle(log);
      expect_matches_reference(log);
    }
  }
}

TEST(SnnMetricsOracle, OutOfSequenceStreams) {
  // Latency jitter far above the emission gap: later spikes of a stream
  // overtake earlier ones, as congestion makes them do in the simulator.
  for (const LogShape& base : shapes()) {
    LogShape shape = base;
    shape.max_gap = 4;
    shape.max_latency = 60;
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
      SCOPED_TRACE(std::to_string(shape.neurons) + " neurons, " +
                   std::to_string(shape.tiles) + " tiles, seed " +
                   std::to_string(seed));
      auto log = generate(shape, seed);
      sort_by_recv(log);
      if (shape.emissions > 2 * shape.neurons) {
        EXPECT_TRUE(has_out_of_sequence_stream(log));
      }
      expect_matches_reference(log);
    }
  }
}

TEST(SnnMetricsOracle, SeveralCopiesPerTilePerCycle) {
  // Coarse recv cycles pile many copies onto each (tile, cycle); sorting
  // by recv alone leaves them in generation order (tiles not (recv,
  // emit)-ordered), sorting by (recv, emit) leaves every tile in order.
  for (const LogShape& base : shapes()) {
    LogShape shape = base;
    shape.recv_quantum = 8;
    shape.max_latency = 30;
    for (std::uint64_t seed = 31; seed <= 34; ++seed) {
      SCOPED_TRACE(std::to_string(shape.neurons) + " neurons, " +
                   std::to_string(shape.tiles) + " tiles, seed " +
                   std::to_string(seed));
      auto log = generate(shape, seed);
      sort_by_recv(log);
      expect_matches_reference(log);
      std::stable_sort(log.begin(), log.end(),
                       [](const DeliveredSpike& a, const DeliveredSpike& b) {
                         return std::tie(a.recv_cycle, a.emit_cycle) <
                                std::tie(b.recv_cycle, b.emit_cycle);
                       });
      expect_matches_reference(log);
    }
  }
}

TEST(SnnMetricsOracle, IdsAtUint32Max) {
  // Sparse neuron ids, sparse tile ids, and both: neither max + 1 nor
  // neuron * tiles may overflow.
  const std::vector<std::uint32_t> sparse = {kMaxId, 0, kMaxId - 1, 1u << 31,
                                             123456789, 7};
  for (int which = 0; which < 3; ++which) {
    LogShape shape;
    shape.neurons = 12;
    shape.tiles = 6;
    shape.emissions = 400;
    shape.max_gap = 4;
    shape.max_latency = 40;
    if (which != 1) shape.neuron_ids = sparse;
    if (which != 0) shape.tile_ids = sparse;
    // Two indices sharing an id would merge their emission chains.
    shape.neurons = static_cast<std::uint32_t>(
        std::min<std::size_t>(shape.neurons, sparse.size()));
    for (std::uint64_t seed = 41; seed <= 44; ++seed) {
      SCOPED_TRACE("case " + std::to_string(which) + ", seed " +
                   std::to_string(seed));
      auto log = generate(shape, seed);
      sort_by_recv(log);
      expect_matches_reference(log);
      util::Rng rng(seed);
      rng.shuffle(log);
      expect_matches_reference(log);
    }
  }
  DeliveredSpike only;
  only.source_neuron = kMaxId;
  only.dest_tile = kMaxId;
  only.recv_cycle = 3;
  expect_matches_reference({only});
}

TEST(SnnMetricsOracle, OneDeliveryAndSingleStream) {
  DeliveredSpike one;
  one.source_neuron = 5;
  one.dest_tile = 2;
  one.emit_cycle = 10;
  one.recv_cycle = 14;
  expect_matches_reference({one});
  const SnnMetrics m = compute_snn_metrics({one});
  EXPECT_EQ(m.delivered_spikes, 1u);
  EXPECT_EQ(m.isi_pairs, 0u);

  LogShape shape;
  shape.neurons = 1;
  shape.tiles = 1;
  shape.emissions = 500;
  shape.max_gap = 3;
  shape.max_latency = 25;
  auto log = generate(shape, 51);
  sort_by_recv(log);
  ASSERT_TRUE(has_out_of_sequence_stream(log));
  expect_matches_reference(log);
}

DeliveredSpike record(std::uint32_t neuron, std::uint64_t emit,
                      std::uint64_t step, std::uint64_t recv,
                      std::uint32_t seq) {
  DeliveredSpike d;
  d.source_neuron = neuron;
  d.emit_cycle = emit;
  d.emit_step = step;
  d.recv_cycle = recv;
  d.sequence = seq;
  return d;
}

TEST(SnnMetricsOracle, ExactTiesKeepLogOrder) {
  // A tile that is not (recv, emit)-ordered is rescanned in (recv, emit)
  // order; two copies that tie on both keep their log order.  Here the
  // step-2 copy stays ahead of the step-1 one, so both it and the trailing
  // step-0 copy count as overtaken.
  const SnnMetrics tile = compute_snn_metrics({
      record(1, 1, 0, 20, 0),
      record(2, 5, 2, 10, 0),
      record(3, 5, 1, 10, 0),
  });
  EXPECT_EQ(tile.disordered_spikes, 2u);
  const SnnMetrics swapped = compute_snn_metrics({
      record(1, 1, 0, 20, 0),
      record(3, 5, 1, 10, 0),
      record(2, 5, 2, 10, 0),
  });
  EXPECT_EQ(swapped.disordered_spikes, 1u);

  // An out-of-sequence stream is rescanned in (sequence, recv, emit)
  // order: of two copies sharing sequence 1, the earlier arrival (65)
  // comes first whatever their log order.
  for (const bool swap : {false, true}) {
    std::vector<DeliveredSpike> stream = {
        record(1, 100, 0, 140, 2),
        record(1, 50, 0, 70, 1),
        record(1, 40, 0, 65, 1),
    };
    if (swap) std::swap(stream[1], stream[2]);
    const SnnMetrics m = compute_snn_metrics(stream);
    EXPECT_EQ(m.isi_pairs, 2u);
    EXPECT_EQ(m.isi_distortion_avg_cycles, 12.5);  // |5 - 10| and |70 - 50|
    EXPECT_EQ(m.isi_distortion_max_cycles, 20.0);
  }
}

}  // namespace
}  // namespace snnmap::noc
