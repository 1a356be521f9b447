// Deterministic synthetic traffic generators shared by the benchmark
// harnesses (bench/ablation_routing, bench/noc_sim_benchmarks) and the
// golden determinism tests (tests/noc/golden_scenarios.hpp).
//
// The golden fixtures and the work counters in BENCH_noc.json both pin the
// exact spike streams these produce — any change to a generator invalidates
// golden fixtures (regenerate with snnmap_noc_golden_capture) and the
// counter record (re-record with scripts/bench_gate.py --record), so change
// them deliberately.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "noc/simulator.hpp"
#include "util/rng.hpp"

namespace snnmap::noc::patterns {

/// Bursty traffic with random multicast fan-out over `tiles` tiles.
inline std::vector<SpikePacketEvent> multicast_traffic(
    std::uint64_t seed, std::uint32_t tiles, std::size_t packets,
    std::uint32_t max_fanout, std::uint32_t packets_per_cycle) {
  util::Rng rng(seed);
  std::vector<SpikePacketEvent> traffic;
  traffic.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    SpikePacketEvent ev;
    ev.emit_cycle = static_cast<std::uint64_t>(i / packets_per_cycle);
    ev.emit_step = ev.emit_cycle / 8;
    ev.source_neuron = static_cast<std::uint32_t>(rng.below(128));
    ev.source_tile = static_cast<TileId>(rng.below(tiles));
    const std::uint32_t fanout =
        1 + static_cast<std::uint32_t>(rng.below(max_fanout));
    for (std::uint32_t k = 0; k < fanout; ++k) {
      const TileId dest = static_cast<TileId>(rng.below(tiles));
      if (dest == ev.source_tile) continue;
      bool seen = false;
      for (const TileId have : ev.dest_tiles) seen = seen || have == dest;
      if (!seen) ev.dest_tiles.push_back(dest);
    }
    if (ev.dest_tiles.empty()) continue;
    std::sort(ev.dest_tiles.begin(), ev.dest_tiles.end());
    traffic.push_back(std::move(ev));
  }
  return traffic;
}

/// Right-column hotspot on a 4x4 mesh: the left three columns stream
/// single-destination packets at the two right-column sinks (tiles 3 and
/// 15), so deterministic XY funnels everything through the east column.
inline std::vector<SpikePacketEvent> mesh_hotspot_traffic(
    std::uint64_t seed, std::size_t packets) {
  util::Rng rng(seed);
  std::vector<SpikePacketEvent> traffic;
  traffic.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    SpikePacketEvent ev;
    ev.emit_cycle = static_cast<std::uint64_t>(i / 6);
    ev.emit_step = ev.emit_cycle;
    ev.source_neuron = static_cast<std::uint32_t>(rng.below(256));
    ev.source_tile = static_cast<TileId>(rng.below(12));  // left 3 columns
    ev.dest_tiles = {static_cast<TileId>(rng.chance(0.5) ? 3 : 15)};
    if (ev.dest_tiles[0] == ev.source_tile) continue;
    traffic.push_back(std::move(ev));
  }
  return traffic;
}

}  // namespace snnmap::noc::patterns
