// Shared scenario definitions for the NoC simulator golden determinism
// tests.  The fixtures in golden_fixtures.inc were captured from the
// pre-refactor (PR 1) simulator by running snnmap_noc_golden_capture; the
// golden test replays the identical scenarios on the current simulator and
// requires bit-identical delivered-spike streams and statistics.
//
// Scenarios only touch the public simulator API, so they survive internal
// rewrites.  Every scenario is fully deterministic (util::Rng-seeded
// traffic); covered axes: mesh/tree/ring topologies, all four mesh routing
// algorithms, both selection strategies, multicast on/off, deep and shallow
// buffers, a non-drained (max_cycles exceeded) run, and faulted fabrics
// whose reroute/drop accounting is pinned by the fault hash.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "../support/fnv1a.hpp"
#include "noc/simulator.hpp"
#include "noc/traffic_patterns.hpp"
#include "util/rng.hpp"

namespace snnmap::noc::golden {

struct Scenario {
  std::string name;
  Topology topology;
  NocConfig config;
  std::vector<SpikePacketEvent> traffic;
};

/// Order-sensitive digest of everything a NocRunResult exposes.
struct Digest {
  std::uint64_t delivered_hash = 0;  ///< full delivery log, delivery order
  std::uint64_t stats_hash = 0;      ///< every NocStats field incl. link map
  std::uint64_t snn_hash = 0;        ///< disorder / ISI metrics
  std::uint64_t fault_hash = 0;      ///< every FaultStats field
  std::uint64_t copies_delivered = 0;
  std::uint64_t duration_cycles = 0;
  std::uint64_t link_hops = 0;
};

namespace detail {
using Fnv1a = snnmap::test::Fnv1a;
}  // namespace detail

inline Digest digest_of(const NocRunResult& result) {
  Digest d;
  detail::Fnv1a delivered;
  for (const DeliveredSpike& s : result.delivered) {
    delivered.mix(static_cast<std::uint64_t>(s.source_neuron));
    delivered.mix(static_cast<std::uint64_t>(s.source_tile));
    delivered.mix(static_cast<std::uint64_t>(s.dest_tile));
    delivered.mix(s.emit_cycle);
    delivered.mix(s.emit_step);
    delivered.mix(s.recv_cycle);
    delivered.mix(static_cast<std::uint64_t>(s.sequence));
  }
  d.delivered_hash = delivered.value();

  const NocStats& st = result.stats;
  detail::Fnv1a stats;
  stats.mix(st.packets_injected);
  stats.mix(st.flits_injected);
  stats.mix(st.copies_delivered);
  stats.mix(st.link_hops);
  stats.mix(st.router_traversals);
  stats.mix(st.global_energy_pj);
  stats.mix(static_cast<std::uint64_t>(st.latency_cycles.count()));
  stats.mix(st.latency_cycles.sum());
  stats.mix(st.latency_cycles.mean());
  stats.mix(st.latency_cycles.variance());
  stats.mix(st.latency_cycles.min());
  stats.mix(st.latency_cycles.max());
  stats.mix(st.max_latency_cycles);
  stats.mix(st.duration_cycles);
  stats.mix(static_cast<std::uint64_t>(st.drained ? 1 : 0));
  for (const auto& [link, flits] : st.link_flits) {
    stats.mix(link);
    stats.mix(flits);
  }
  d.stats_hash = stats.value();

  const SnnMetrics& sm = result.snn;
  detail::Fnv1a snn;
  snn.mix(sm.isi_distortion_avg_cycles);
  snn.mix(sm.isi_distortion_max_cycles);
  snn.mix(sm.disorder_fraction);
  snn.mix(sm.disordered_spikes);
  snn.mix(sm.delivered_spikes);
  snn.mix(sm.isi_pairs);
  d.snn_hash = snn.value();

  const FaultStats& fs = st.fault;
  detail::Fnv1a fault;
  fault.mix(fs.link_faults);
  fault.mix(fs.router_faults);
  fault.mix(fs.tile_faults);
  fault.mix(fs.links_restored);
  fault.mix(fs.reroutes);
  fault.mix(fs.flits_dropped);
  fault.mix(fs.copies_dropped);
  fault.mix(fs.copies_killed);
  fault.mix(fs.copies_unroutable);
  fault.mix(fs.copies_blocked_at_source);
  fault.mix(fs.packets_blocked);
  fault.mix(fs.copies_stranded);
  d.fault_hash = fault.value();

  d.copies_delivered = st.copies_delivered;
  d.duration_cycles = st.duration_cycles;
  d.link_hops = st.link_hops;
  return d;
}

inline std::vector<Scenario> scenarios() {
  std::vector<Scenario> list;

  const auto mesh = [](MeshRouting routing) {
    Topology t = Topology::mesh(4, 4);
    t.set_mesh_routing(routing);
    return t;
  };
  const auto config = [](std::uint32_t buffer_depth, bool multicast,
                         SelectionStrategy selection,
                         std::uint64_t max_cycles = 20'000'000) {
    NocConfig c;
    c.buffer_depth = buffer_depth;
    c.multicast = multicast;
    c.selection = selection;
    c.max_cycles = max_cycles;
    return c;
  };
  constexpr auto kFirst = SelectionStrategy::kFirstCandidate;
  constexpr auto kLevel = SelectionStrategy::kBufferLevel;

  list.push_back({"mesh4x4_xy_multicast", mesh(MeshRouting::kXY),
                  config(4, true, kFirst),
                  patterns::multicast_traffic(101, 16, 1500, 5, 4)});
  list.push_back({"mesh4x4_xy_unicast", mesh(MeshRouting::kXY),
                  config(4, false, kFirst),
                  patterns::multicast_traffic(101, 16, 1500, 5, 4)});
  list.push_back({"mesh4x4_yx_multicast_buffer2", mesh(MeshRouting::kYX),
                  config(2, true, kFirst),
                  patterns::multicast_traffic(202, 16, 1200, 4, 6)});
  list.push_back({"mesh4x4_westfirst_first_candidate",
                  mesh(MeshRouting::kWestFirst), config(2, true, kFirst),
                  patterns::mesh_hotspot_traffic(7, 3000)});
  list.push_back({"mesh4x4_westfirst_buffer_level",
                  mesh(MeshRouting::kWestFirst), config(2, true, kLevel),
                  patterns::mesh_hotspot_traffic(7, 3000)});
  // Multicast flits that decay to a single remaining destination exercise
  // the late switch into adaptive selection.
  list.push_back({"mesh4x4_northlast_buffer_level",
                  mesh(MeshRouting::kNorthLast), config(2, true, kLevel),
                  patterns::multicast_traffic(303, 16, 1200, 3, 6)});
  list.push_back({"tree16x4_multicast", Topology::tree(16, 4),
                  config(4, true, kFirst),
                  patterns::multicast_traffic(404, 16, 1500, 6, 4)});
  list.push_back({"tree16x4_unicast_buffer1", Topology::tree(16, 4),
                  config(1, false, kFirst),
                  patterns::multicast_traffic(404, 16, 800, 4, 3)});
  list.push_back({"ring9_multicast", Topology::ring(9),
                  config(4, true, kFirst),
                  patterns::multicast_traffic(505, 9, 600, 3, 1)});
  list.push_back({"mesh4x4_xy_not_drained", mesh(MeshRouting::kXY),
                  config(1, true, kFirst, /*max_cycles=*/120),
                  patterns::multicast_traffic(606, 16, 2000, 6, 50)});
  // Multi-chip fabrics: one chip per dragonfly group / fat-tree pod, so
  // off-chip SerDes latency and the distinct boundary energy shape the
  // delivered stream (captured post-PR-6; pinned forever after).
  Topology dragonfly = Topology::dragonfly(4, 5, 1);
  dragonfly.assign_chips(5);
  list.push_back({"dragonfly4x5x1_5chip_multicast", std::move(dragonfly),
                  config(4, true, kFirst),
                  patterns::multicast_traffic(707, 20, 1200, 5, 4)});
  Topology fattree = Topology::fattree(4);
  fattree.assign_chips(4);
  list.push_back({"fattree4_4chip_unicast_buffer_level", std::move(fattree),
                  config(2, false, kLevel),
                  patterns::multicast_traffic(808, 8, 900, 3, 3)});

  // Faulted fabric (captured post-PR-7): seeded random link/tile faults,
  // transient outages, and lossy wires over XY-mesh multicast traffic.  The
  // fault hash pins its reroute, prune and drop accounting.
  {
    NocConfig faulted = config(4, true, kFirst);
    faulted.faults.seed = 909;
    faulted.faults.link_fault_rate = 0.08;
    faulted.faults.tile_fault_rate = 0.05;
    faulted.faults.transient_link_rate = 0.15;
    faulted.faults.transient_duration_cycles = 400;
    faulted.faults.flit_drop_probability = 0.02;
    faulted.faults.horizon_cycles = 4'000;
    list.push_back({"mesh4x4_xy_multicast_faulted", mesh(MeshRouting::kXY),
                    std::move(faulted),
                    patterns::multicast_traffic(909, 16, 1500, 5, 4)});
  }
  // Adaptive faulted fabric: west-first routing with buffer-level
  // selection, so multicast flits that shrink to one destination switch
  // into adaptive selection among the live candidates while transient
  // outages reroute them and lossy wires drop copies.
  {
    NocConfig faulted = config(2, true, kLevel);
    faulted.faults.seed = 1111;
    faulted.faults.transient_link_rate = 0.5;
    faulted.faults.transient_duration_cycles = 100;
    faulted.faults.flit_drop_probability = 0.01;
    faulted.faults.horizon_cycles = 500;
    list.push_back({"mesh4x4_westfirst_multicast_buffer_level_faulted",
                    mesh(MeshRouting::kWestFirst), std::move(faulted),
                    patterns::multicast_traffic(1111, 16, 1500, 6, 4)});
  }

  return list;
}

}  // namespace snnmap::noc::golden
