#include "noc/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace snnmap::noc {

std::uint64_t NocStats::max_link_flits() const noexcept {
  std::uint64_t max_flits = 0;
  for (const auto& [link, flits] : link_flits) {
    max_flits = std::max(max_flits, flits);
  }
  return max_flits;
}

double NocStats::mean_link_flits() const noexcept {
  if (link_flits.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [link, flits] : link_flits) {
    sum += static_cast<double>(flits);
  }
  return sum / static_cast<double>(link_flits.size());
}

double NocStats::link_hotspot_factor() const noexcept {
  const double mean = mean_link_flits();
  return mean > 0.0 ? static_cast<double>(max_link_flits()) / mean : 0.0;
}

double NocStats::throughput_aer_per_ms(
    std::uint32_t cycles_per_ms) const noexcept {
  if (duration_cycles == 0 || cycles_per_ms == 0) return 0.0;
  const double ms =
      static_cast<double>(duration_cycles) / static_cast<double>(cycles_per_ms);
  return static_cast<double>(copies_delivered) / ms;
}

namespace {

/// Order-preserving dense indices of destination tiles and of (source
/// neuron, destination tile) streams.  Raw ids index directly while the
/// stream table (max_neuron + 1) * (max_dest + 1) stays within a small
/// multiple of the log; sparser ids (handcrafted logs reach UINT32_MAX) are
/// replaced by their rank among the ids present.
struct StreamIndex {
  std::size_t tiles = 0;
  std::size_t streams = 0;
  std::vector<std::uint64_t> tile_ids;    ///< empty while raw ids index
  std::vector<std::uint64_t> stream_ids;  ///< empty while raw ids index

  static std::uint64_t key(const DeliveredSpike& s) noexcept {
    return (std::uint64_t{s.source_neuron} << 32) | s.dest_tile;
  }
  static std::size_t rank(const std::vector<std::uint64_t>& ids,
                          std::uint64_t id) noexcept {
    return static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  }

  explicit StreamIndex(const std::vector<DeliveredSpike>& log) {
    std::uint64_t max_dest = 0;
    std::uint64_t max_neuron = 0;
    for (const DeliveredSpike& s : log) {
      max_dest = std::max<std::uint64_t>(max_dest, s.dest_tile);
      max_neuron = std::max<std::uint64_t>(max_neuron, s.source_neuron);
    }
    const std::uint64_t budget = 2 * std::uint64_t{log.size()} + 4096;
    if (max_dest < budget && max_neuron < budget / (max_dest + 1)) {
      tiles = static_cast<std::size_t>(max_dest + 1);
      streams = static_cast<std::size_t>(max_neuron + 1) * tiles;
      return;
    }
    for (const DeliveredSpike& s : log) {
      tile_ids.push_back(s.dest_tile);
      stream_ids.push_back(key(s));
    }
    for (std::vector<std::uint64_t>* ids : {&tile_ids, &stream_ids}) {
      std::sort(ids->begin(), ids->end());
      ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
    }
    tiles = tile_ids.size();
    streams = stream_ids.size();
  }
  std::size_t tile(const DeliveredSpike& s) const noexcept {
    return tile_ids.empty() ? s.dest_tile : rank(tile_ids, s.dest_tile);
  }
  std::size_t stream(const DeliveredSpike& s) const noexcept {
    return stream_ids.empty()
               ? std::size_t{s.source_neuron} * tiles + s.dest_tile
               : rank(stream_ids, key(s));
  }
};

/// Log-order scan state of one destination tile.
struct TileScan {
  std::uint64_t last_recv = 0;
  std::uint64_t last_emit = 0;
  std::uint64_t max_step = 0;
  std::uint64_t disordered = 0;
  bool reordered = false;  ///< the log is not (recv, emit)-ordered here
};

/// Log-order scan state of one (source neuron, destination tile) stream.
struct StreamScan {
  std::uint64_t last_emit = 0;
  std::uint64_t last_recv = 0;
  std::size_t next = 0;  ///< pass 1: records seen; pass 2: next slot
  std::uint32_t last_sequence = 0;
  bool seen = false;       ///< pass 2 has passed a record of the stream
  bool reordered = false;  ///< arrivals went out of sequence
};

}  // namespace

SnnMetrics compute_snn_metrics(
    const std::vector<DeliveredSpike>& delivery_log) {
  SnnMetrics m;
  m.delivered_spikes = delivery_log.size();
  if (delivery_log.empty()) return m;
  const StreamIndex index(delivery_log);
  std::vector<TileScan> tiles(index.tiles);
  std::vector<StreamScan> streams(index.streams);
  std::vector<double> distortion;
  const auto add_disorder = [](TileScan& t, const DeliveredSpike& s) {
    if (s.emit_step < t.max_step) ++t.disordered;  // a later step overtook it
    t.max_step = std::max(t.max_step, s.emit_step);
  };
  const auto add_isi = [&](StreamScan& st, const DeliveredSpike& s) {
    if (st.seen) {
      const double sent_isi = static_cast<double>(s.emit_cycle) -
                              static_cast<double>(st.last_emit);
      const double recv_isi = static_cast<double>(s.recv_cycle) -
                              static_cast<double>(st.last_recv);
      distortion[st.next++] = std::abs(recv_isi - sent_isi);
    }
    st.last_emit = s.emit_cycle;
    st.last_recv = s.recv_cycle;
    st.seen = true;
  };

  // ---- Pass 1: disorder per tile in log order, which is its arrival order
  // unless the tile is flagged as not (recv, emit)-ordered, and record
  // counts per stream, flagging streams whose sequence goes back.
  for (const DeliveredSpike& s : delivery_log) {
    TileScan& t = tiles[index.tile(s)];
    t.reordered |= std::tie(s.recv_cycle, s.emit_cycle) <
                   std::tie(t.last_recv, t.last_emit);
    t.last_recv = s.recv_cycle;
    t.last_emit = s.emit_cycle;
    add_disorder(t, s);
    StreamScan& st = streams[index.stream(s)];
    st.reordered |= st.next != 0 && s.sequence < st.last_sequence;
    st.last_sequence = s.sequence;
    ++st.next;
  }
  std::size_t pairs = 0;
  for (StreamScan& st : streams) {
    const std::size_t records = st.next;
    st.next = pairs;
    pairs += records == 0 ? 0 : records - 1;
  }

  // ---- Pass 2: each stream's consecutive-pair distortions go to its
  // stream-major slots, the order the Welford mean below is defined in.
  // Flagged streams, and all streams of flagged tiles, are set aside.
  distortion.resize(pairs);
  std::vector<DeliveredSpike> repair;
  for (const DeliveredSpike& s : delivery_log) {
    StreamScan& st = streams[index.stream(s)];
    if (st.reordered || tiles[index.tile(s)].reordered) {
      repair.push_back(s);
    } else {
      add_isi(st, s);
    }
  }

  // ---- Repair: the set-aside records are rescanned in the defined orders,
  // tiles by (recv, emit) and streams by (sequence, recv, emit), with exact
  // ties in log order.
  std::stable_sort(repair.begin(), repair.end(),
                   [](const DeliveredSpike& a, const DeliveredSpike& b) {
                     return std::tie(a.recv_cycle, a.emit_cycle) <
                            std::tie(b.recv_cycle, b.emit_cycle);
                   });
  for (TileScan& t : tiles) {
    if (t.reordered) t = TileScan{.reordered = true};
  }
  for (const DeliveredSpike& s : repair) {
    TileScan& t = tiles[index.tile(s)];
    if (t.reordered) add_disorder(t, s);
  }
  std::stable_sort(repair.begin(), repair.end(),
                   [](const DeliveredSpike& a, const DeliveredSpike& b) {
                     return std::tie(a.sequence, a.recv_cycle, a.emit_cycle) <
                            std::tie(b.sequence, b.recv_cycle, b.emit_cycle);
                   });
  for (const DeliveredSpike& s : repair) add_isi(streams[index.stream(s)], s);

  for (const TileScan& t : tiles) m.disordered_spikes += t.disordered;
  m.disorder_fraction = static_cast<double>(m.disordered_spikes) /
                        static_cast<double>(m.delivered_spikes);
  util::Accumulator isi;
  for (const double d : distortion) isi.add(d);
  m.isi_pairs = isi.count();
  m.isi_distortion_avg_cycles = isi.mean();
  m.isi_distortion_max_cycles = isi.max();
  return m;
}

}  // namespace snnmap::noc
