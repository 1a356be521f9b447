// Property test pinning the two views of the per-topology routing
// functions against each other: the packed Topology::route_entry() the
// simulator's route-compute stage reads and the checked next_port() (always
// the first candidate) must agree on every (router, dst) pair — for every
// interconnect kind, several sizes, and every mesh routing algorithm.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "noc/topology.hpp"

namespace snnmap::noc {
namespace {

void expect_entries_match_next_port(const Topology& topology,
                                    const char* label) {
  const std::uint32_t n = topology.router_count();
  for (RouterId r = 0; r < n; ++r) {
    for (RouterId dst = 0; dst < n; ++dst) {
      SCOPED_TRACE(std::string(label) + " " + std::to_string(r) + "->" +
                   std::to_string(dst));
      const Topology::RouteEntry e = topology.route_entry(r, dst);
      if (r == dst) {
        EXPECT_EQ(e.count, 1u);
        EXPECT_EQ(e.port[0], Topology::kTableLocal);
        EXPECT_EQ(topology.next_port(r, dst), kLocalPort);
        continue;
      }
      ASSERT_GE(e.count, 1u);
      ASSERT_LE(e.count, 3u);
      for (std::uint32_t k = 0; k < e.count; ++k) {
        ASSERT_NE(e.port[k], Topology::kTableLocal) << "candidate " << k;
        ASSERT_LT(e.port[k], topology.port_count(r)) << "candidate " << k;
      }
      EXPECT_EQ(topology.next_port(r, dst), PortId{e.port[0]});
    }
  }
}

TEST(RouteFunction, MeshMatchesCacheForAllRoutings) {
  for (const auto& wh : {std::pair<std::uint32_t, std::uint32_t>{1, 1},
                        {4, 1},
                        {3, 3},
                        {5, 4}}) {
    for (const auto routing :
         {MeshRouting::kXY, MeshRouting::kYX, MeshRouting::kWestFirst,
          MeshRouting::kNorthLast}) {
      auto mesh = Topology::mesh(wh.first, wh.second);
      mesh.set_mesh_routing(routing);
      expect_entries_match_next_port(mesh, to_string(routing));
    }
  }
}

TEST(RouteFunction, TreeMatchesCache) {
  for (const auto& [tiles, arity] :
       {std::pair<std::uint32_t, std::uint32_t>{1, 2},
        {4, 4},
        {8, 2},
        {9, 3},
        {13, 4}}) {  // 13 = ragged last parent on two levels
    expect_entries_match_next_port(Topology::tree(tiles, arity), "tree");
  }
}

TEST(RouteFunction, RingMatchesCache) {
  for (const std::uint32_t tiles : {2u, 3u, 6u, 9u}) {
    expect_entries_match_next_port(Topology::ring(tiles), "ring");
  }
}

TEST(RouteFunction, DragonflyMatchesCache) {
  for (const auto& [a, g, h] :
       {std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>{2, 2, 1},
        {4, 5, 1},
        {3, 4, 2},     // multiple replicas: adaptive cross-group candidates
        {4, 7, 2}}) {  // a*h > g-1 with a dark channel remainder
    expect_entries_match_next_port(Topology::dragonfly(a, g, h), "dragonfly");
  }
}

TEST(RouteFunction, FattreeMatchesCache) {
  for (const std::uint32_t k : {2u, 4u, 6u}) {
    expect_entries_match_next_port(Topology::fattree(k), "fattree");
  }
}

TEST(RouteFunction, WidePortCountsRouteThroughNextPort) {
  // A 255-ary tree hub has 256 ports — more than the packed uint8 entries
  // can address — yet function routing still works through the wide
  // PortId API.
  const auto wide = Topology::tree(256, 255);
  EXPECT_NO_THROW((void)wide.next_port(0, 255));
  const RouterId dst = wide.router_of_tile(255);
  RouterId r = wide.router_of_tile(0);
  std::uint32_t hops = 0;
  while (r != dst) {
    ASSERT_LE(++hops, wide.router_count());
    r = wide.neighbor(r, wide.next_port(r, dst));
  }
  EXPECT_EQ(hops, wide.hop_distance(0, 255));
}

}  // namespace
}  // namespace snnmap::noc
