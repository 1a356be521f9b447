// Tests for the configurable mesh routing algorithms (Noxim's "routing
// algorithm" + "selection strategy" parameters, Sec. IV).
#include <gtest/gtest.h>

#include <tuple>

#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "util/rng.hpp"

namespace snnmap::noc {
namespace {

TEST(MeshRouting, NamesRoundTrip) {
  for (const auto r : {MeshRouting::kXY, MeshRouting::kYX,
                       MeshRouting::kWestFirst, MeshRouting::kNorthLast}) {
    EXPECT_EQ(mesh_routing_from_string(to_string(r)), r);
  }
  EXPECT_THROW(mesh_routing_from_string("zigzag"), std::invalid_argument);
}

TEST(MeshRouting, OnlyMeshAcceptsRoutingConfig) {
  auto tree = Topology::tree(4, 4);
  EXPECT_THROW(tree.set_mesh_routing(MeshRouting::kYX), std::logic_error);
  auto mesh = Topology::mesh(3, 3);
  EXPECT_NO_THROW(mesh.set_mesh_routing(MeshRouting::kYX));
  EXPECT_EQ(mesh.mesh_routing(), MeshRouting::kYX);
}

TEST(MeshRouting, XyGoesXFirstYxGoesYFirst) {
  auto mesh = Topology::mesh(3, 3);
  // 0=(0,0) -> 8=(2,2).
  mesh.set_mesh_routing(MeshRouting::kXY);
  EXPECT_EQ(mesh.neighbor(0, mesh.next_port(0, 8)), 1u);  // east
  mesh.set_mesh_routing(MeshRouting::kYX);
  EXPECT_EQ(mesh.neighbor(0, mesh.next_port(0, 8)), 3u);  // south
}

TEST(MeshRouting, DeterministicAlgorithmsHaveOneCandidate) {
  auto mesh = Topology::mesh(4, 4);
  for (const auto r : {MeshRouting::kXY, MeshRouting::kYX}) {
    mesh.set_mesh_routing(r);
    for (RouterId a = 0; a < 16; ++a) {
      for (RouterId b = 0; b < 16; ++b) {
        if (a == b) continue;
        EXPECT_EQ(mesh.route_entry(a, b).count, 1u);
      }
    }
  }
}

TEST(MeshRouting, WestFirstForcesWestwardMoves) {
  auto mesh = Topology::mesh(4, 4);
  mesh.set_mesh_routing(MeshRouting::kWestFirst);
  // 5=(1,1) -> 0=(0,0): west is productive, so west is the only candidate.
  const Topology::RouteEntry west = mesh.route_entry(5, 0);
  ASSERT_EQ(west.count, 1u);
  EXPECT_EQ(mesh.neighbor(5, west.port[0]), 4u);
  // 5=(1,1) -> 15=(3,3): east+south both legal (adaptive).
  const Topology::RouteEntry out = mesh.route_entry(5, 15);
  EXPECT_EQ(out.count, 2u);
  std::set<RouterId> nexts;
  for (std::uint32_t k = 0; k < out.count; ++k) {
    nexts.insert(mesh.neighbor(5, out.port[k]));
  }
  EXPECT_EQ(nexts, (std::set<RouterId>{6, 9}));
}

TEST(MeshRouting, NorthLastDefersNorthMoves) {
  auto mesh = Topology::mesh(4, 4);
  mesh.set_mesh_routing(MeshRouting::kNorthLast);
  // 13=(1,3) -> 2=(2,0): east productive and north productive; north must
  // not be offered while east is available.
  const Topology::RouteEntry east = mesh.route_entry(13, 2);
  ASSERT_EQ(east.count, 1u);
  EXPECT_EQ(mesh.neighbor(13, east.port[0]), 14u);  // east only
  // 14=(2,3) -> 2=(2,0): pure north -> north allowed as the sole option.
  const Topology::RouteEntry north = mesh.route_entry(14, 2);
  ASSERT_EQ(north.count, 1u);
  EXPECT_EQ(mesh.neighbor(14, north.port[0]), 10u);
}

TEST(MeshRouting, AllCandidatesAreProductive) {
  // Candidates must strictly reduce Manhattan distance for every algorithm.
  auto mesh = Topology::mesh(5, 4);
  const auto manhattan = [&](RouterId a, RouterId b) {
    const int ax = static_cast<int>(a % 5), ay = static_cast<int>(a / 5);
    const int bx = static_cast<int>(b % 5), by = static_cast<int>(b / 5);
    return std::abs(ax - bx) + std::abs(ay - by);
  };
  for (const auto r : {MeshRouting::kXY, MeshRouting::kYX,
                       MeshRouting::kWestFirst, MeshRouting::kNorthLast}) {
    mesh.set_mesh_routing(r);
    for (RouterId a = 0; a < 20; ++a) {
      for (RouterId b = 0; b < 20; ++b) {
        if (a == b) continue;
        const Topology::RouteEntry e = mesh.route_entry(a, b);
        ASSERT_GE(e.count, 1u) << to_string(r);
        for (std::uint32_t k = 0; k < e.count; ++k) {
          EXPECT_EQ(manhattan(mesh.neighbor(a, e.port[k]), b),
                    manhattan(a, b) - 1)
              << to_string(r) << " " << a << "->" << b;
        }
      }
    }
  }
}

TEST(MeshRouting, HopDistanceStaysManhattanUnderAllAlgorithms) {
  auto mesh = Topology::mesh(4, 4);
  for (const auto r : {MeshRouting::kXY, MeshRouting::kYX,
                       MeshRouting::kWestFirst, MeshRouting::kNorthLast}) {
    mesh.set_mesh_routing(r);
    EXPECT_EQ(mesh.hop_distance(0, 15), 6u) << to_string(r);
    EXPECT_EQ(mesh.hop_distance(12, 3), 6u) << to_string(r);
    EXPECT_EQ(mesh.hop_distance(5, 6), 1u) << to_string(r);
  }
}

TEST(Selection, Names) {
  EXPECT_STREQ(to_string(SelectionStrategy::kFirstCandidate),
               "first-candidate");
  EXPECT_STREQ(to_string(SelectionStrategy::kBufferLevel), "buffer-level");
}

/// End-to-end property: under every (routing, selection) combination, random
/// traffic drains completely, every copy is delivered, and latency is at
/// least the Manhattan distance.
class RoutingProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RoutingProperty, RandomTrafficDrainsAndDelivers) {
  const auto [routing_index, selection_index, seed] = GetParam();
  auto topo = Topology::mesh(4, 4);
  topo.set_mesh_routing(static_cast<MeshRouting>(routing_index));
  NocConfig config;
  config.selection = static_cast<SelectionStrategy>(selection_index);
  config.buffer_depth = 2;  // pressure makes adaptivity matter

  util::Rng rng(static_cast<std::uint64_t>(seed) * 101 + 7);
  std::vector<SpikePacketEvent> traffic;
  std::size_t expected = 0;
  for (int i = 0; i < 400; ++i) {
    SpikePacketEvent ev;
    ev.emit_cycle = static_cast<std::uint64_t>(i / 8);
    ev.emit_step = ev.emit_cycle;
    ev.source_neuron = static_cast<std::uint32_t>(rng.below(128));
    ev.source_tile = static_cast<TileId>(rng.below(16));
    TileId dest;
    do {
      dest = static_cast<TileId>(rng.below(16));
    } while (dest == ev.source_tile);
    ev.dest_tiles = {dest};
    ++expected;
    // A third of the packets are 2-destination multicasts.
    if (i % 3 == 0) {
      TileId second;
      do {
        second = static_cast<TileId>(rng.below(16));
      } while (second == ev.source_tile || second == dest);
      ev.dest_tiles.push_back(second);
      ++expected;
    }
    traffic.push_back(std::move(ev));
  }

  NocSimulator sim(std::move(topo), config);
  const auto result = sim.run(traffic);
  ASSERT_TRUE(result.stats.drained);
  EXPECT_EQ(result.stats.copies_delivered, expected);
  const auto manhattan = [](TileId a, TileId b) {
    const int ax = static_cast<int>(a % 4), ay = static_cast<int>(a / 4);
    const int bx = static_cast<int>(b % 4), by = static_cast<int>(b / 4);
    return static_cast<std::uint64_t>(std::abs(ax - bx) + std::abs(ay - by));
  };
  for (const auto& d : result.delivered) {
    EXPECT_GE(d.latency(), manhattan(d.source_tile, d.dest_tile));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoutingProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),  // routing algorithms
                       ::testing::Values(0, 1),        // selection strategies
                       ::testing::Values(1, 2)));      // seeds

}  // namespace
}  // namespace snnmap::noc
