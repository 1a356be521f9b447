#include "noc/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace snnmap::noc {
namespace {

TEST(Mesh, DimensionsAndTiles) {
  const auto t = Topology::mesh(3, 2);
  EXPECT_EQ(t.router_count(), 6u);
  EXPECT_EQ(t.tile_count(), 6u);
  EXPECT_EQ(t.kind(), hw::InterconnectKind::kMesh);
  EXPECT_EQ(t.link_count(), 2u * 2u + 3u * 1u);  // 2 per row *2 rows? see calc
  for (TileId i = 0; i < 6; ++i) {
    EXPECT_EQ(t.router_of_tile(i), i);
    EXPECT_EQ(t.tile_of_router(i), i);
  }
}

TEST(Mesh, XyHopDistanceIsManhattan) {
  const auto t = Topology::mesh(4, 4);
  EXPECT_EQ(t.hop_distance(0, 0), 0u);
  EXPECT_EQ(t.hop_distance(0, 3), 3u);    // same row
  EXPECT_EQ(t.hop_distance(0, 12), 3u);   // same column
  EXPECT_EQ(t.hop_distance(0, 15), 6u);   // corner to corner
  EXPECT_EQ(t.hop_distance(5, 10), 2u);   // (1,1) -> (2,2)
}

TEST(Mesh, XyRoutesXFirst) {
  const auto t = Topology::mesh(3, 3);
  // From router 0 (0,0) to router 8 (2,2): first hop must be +x (router 1).
  const PortId p = t.next_port(0, 8);
  EXPECT_EQ(t.neighbor(0, p), 1u);
  // From 2 (2,0) to 6 (0,2): first hop is -x (router 1).
  const PortId q = t.next_port(2, 6);
  EXPECT_EQ(t.neighbor(2, q), 1u);
}

TEST(Mesh, LocalPortWhenArrived) {
  const auto t = Topology::mesh(2, 2);
  EXPECT_EQ(t.next_port(3, 3), kLocalPort);
}

TEST(Mesh, RejectsZeroDimensions) {
  EXPECT_THROW(Topology::mesh(0, 3), std::invalid_argument);
  EXPECT_THROW(Topology::mesh(3, 0), std::invalid_argument);
}

TEST(Tree, CxquadShape) {
  // 4 leaves under one hub (arity 4): 5 routers, 4 links.
  const auto t = Topology::tree(4, 4);
  EXPECT_EQ(t.router_count(), 5u);
  EXPECT_EQ(t.tile_count(), 4u);
  EXPECT_EQ(t.link_count(), 4u);
  EXPECT_EQ(t.kind(), hw::InterconnectKind::kTree);
  // Every leaf pair is 2 hops apart (up to hub, down).
  for (TileId a = 0; a < 4; ++a) {
    for (TileId b = 0; b < 4; ++b) {
      EXPECT_EQ(t.hop_distance(a, b), a == b ? 0u : 2u);
    }
  }
  // Internal hub has no tile.
  EXPECT_EQ(t.tile_of_router(4), kNoRouter);
}

TEST(Tree, TwoLevelDistances) {
  // 8 leaves, arity 4 -> 2 mid routers + root: leaves in the same subtree
  // are 2 hops apart; across subtrees 4 hops.
  const auto t = Topology::tree(8, 4);
  EXPECT_EQ(t.hop_distance(0, 3), 2u);
  EXPECT_EQ(t.hop_distance(0, 4), 4u);
  EXPECT_EQ(t.hop_distance(4, 7), 2u);
}

TEST(Tree, SingleTileIsTrivial) {
  const auto t = Topology::tree(1, 4);
  EXPECT_EQ(t.router_count(), 1u);
  EXPECT_EQ(t.hop_distance(0, 0), 0u);
}

TEST(Tree, RejectsBadParams) {
  EXPECT_THROW(Topology::tree(0, 4), std::invalid_argument);
  EXPECT_THROW(Topology::tree(4, 1), std::invalid_argument);
}

TEST(Ring, ShortestPathWrapsAround) {
  const auto t = Topology::ring(6);
  EXPECT_EQ(t.router_count(), 6u);
  EXPECT_EQ(t.link_count(), 6u);
  EXPECT_EQ(t.hop_distance(0, 1), 1u);
  EXPECT_EQ(t.hop_distance(0, 3), 3u);  // diameter
  EXPECT_EQ(t.hop_distance(0, 5), 1u);  // wraps
  EXPECT_EQ(t.hop_distance(1, 5), 2u);
}

TEST(Ring, TwoNode) {
  const auto two = Topology::ring(2);
  EXPECT_EQ(two.hop_distance(0, 1), 1u);
  EXPECT_EQ(two.link_count(), 1u);
}

TEST(Ring, RejectsDegenerateSizes) {
  // A 0/1-node "ring" has no links to route over.
  EXPECT_THROW(Topology::ring(0), std::invalid_argument);
  EXPECT_THROW(Topology::ring(1), std::invalid_argument);
}

TEST(Dragonfly, ShapeAndLinkCount) {
  // a=4, g=5, h=1: balanced (a*h == g-1), 20 routers, one tile each.
  const auto t = Topology::dragonfly(4, 5, 1);
  EXPECT_EQ(t.kind(), hw::InterconnectKind::kDragonfly);
  EXPECT_EQ(t.router_count(), 20u);
  EXPECT_EQ(t.tile_count(), 20u);
  // 5 complete local graphs (6 links each) + 5*4/2 global links.
  EXPECT_EQ(t.link_count(), 5u * 6u + 10u);
  // Every router: a-1 = 3 local ports + h = 1 global port.
  for (RouterId r = 0; r < t.router_count(); ++r) {
    EXPECT_EQ(t.port_count(r), 4u);
  }
}

TEST(Dragonfly, HopDistancesAreMinimal) {
  const auto t = Topology::dragonfly(4, 5, 1);
  // Same group: always 1 hop (complete graph).
  EXPECT_EQ(t.hop_distance(0, 3), 1u);
  // Cross-group distances are 1..3 (global hop plus at most one local hop
  // on each side) and never more.
  for (TileId a = 0; a < t.tile_count(); ++a) {
    for (TileId b = 0; b < t.tile_count(); ++b) {
      if (a == b) continue;
      const std::uint32_t d = t.hop_distance(a, b);
      EXPECT_GE(d, 1u);
      EXPECT_LE(d, 3u);
    }
  }
}

TEST(Dragonfly, RejectsDegenerateParams) {
  EXPECT_THROW(Topology::dragonfly(1, 5, 1), std::invalid_argument);
  EXPECT_THROW(Topology::dragonfly(4, 1, 1), std::invalid_argument);
  EXPECT_THROW(Topology::dragonfly(4, 5, 0), std::invalid_argument);
  // a*h < g-1: not enough global channels to reach every peer group.
  EXPECT_THROW(Topology::dragonfly(2, 9, 2), std::invalid_argument);
  // h > g-1 would wire parallel links.
  EXPECT_THROW(Topology::dragonfly(4, 3, 3), std::invalid_argument);
}

TEST(Fattree, ShapeAndLinkCount) {
  // k=4: 4 pods x (2 edge + 2 agg) + 4 cores = 20 routers, 8 tiles.
  const auto t = Topology::fattree(4);
  EXPECT_EQ(t.kind(), hw::InterconnectKind::kFattree);
  EXPECT_EQ(t.router_count(), 20u);
  EXPECT_EQ(t.tile_count(), 8u);
  EXPECT_EQ(t.link_count(), 32u);  // 16 edge-agg + 16 agg-core
  // Edge switches carry the tiles; aggs and cores have none.
  for (RouterId r = 0; r < 8; ++r) EXPECT_EQ(t.tile_of_router(r), r);
  for (RouterId r = 8; r < 20; ++r) {
    EXPECT_EQ(t.tile_of_router(r), kNoRouter);
  }
}

TEST(Fattree, HopDistances) {
  const auto t = Topology::fattree(4);
  EXPECT_EQ(t.hop_distance(0, 0), 0u);
  EXPECT_EQ(t.hop_distance(0, 1), 2u);  // same pod, via an agg
  EXPECT_EQ(t.hop_distance(0, 7), 4u);  // cross pod, via a core
}

TEST(Fattree, RejectsDegenerateParams) {
  EXPECT_THROW(Topology::fattree(0), std::invalid_argument);
  EXPECT_THROW(Topology::fattree(3), std::invalid_argument);  // odd radix
}

TEST(Topology, AssignChipsTagsBoundaryLinks) {
  auto t = Topology::dragonfly(4, 5, 1);
  EXPECT_EQ(t.chip_count(), 1u);
  EXPECT_EQ(t.offchip_link_count(), 0u);
  t.assign_chips(5);  // one chip per group of 4 tiles
  EXPECT_EQ(t.chip_count(), 5u);
  for (RouterId r = 0; r < t.router_count(); ++r) {
    EXPECT_EQ(t.chip_of_router(r), r / 4);
  }
  // Exactly the global links cross chips; local links stay on-chip.
  EXPECT_EQ(t.offchip_link_count(), 10u);
  std::uint32_t offchip_ports = 0;
  for (RouterId r = 0; r < t.router_count(); ++r) {
    for (PortId p = 0; p < t.port_count(r); ++p) {
      const bool crosses = t.chip_of_router(r) !=
                           t.chip_of_router(t.neighbor(r, p));
      EXPECT_EQ(t.link_is_offchip(r, p), crosses);
      offchip_ports += t.link_is_offchip(r, p) ? 1 : 0;
    }
  }
  EXPECT_EQ(offchip_ports, 2u * t.offchip_link_count());
}

TEST(Topology, AssignChipsCoversTilelessRouters) {
  // Tree internals take the chip of their first leaf; fat-tree aggs take
  // their pod's first tile and cores chip 0.
  auto tree = Topology::tree(8, 2);
  tree.assign_chips(2);
  EXPECT_EQ(tree.chip_of_router(tree.router_of_tile(0)), 0u);
  EXPECT_EQ(tree.chip_of_router(tree.router_of_tile(7)), 1u);
  auto ft = Topology::fattree(4);
  ft.assign_chips(4);  // one pod (2 tiles) per chip
  for (TileId tile = 0; tile < ft.tile_count(); ++tile) {
    EXPECT_EQ(ft.chip_of_router(ft.router_of_tile(tile)), tile / 2);
  }
  for (RouterId agg = 8; agg < 16; ++agg) {
    EXPECT_EQ(ft.chip_of_router(agg), (agg - 8) / 2);
  }
  for (RouterId core = 16; core < 20; ++core) {
    EXPECT_EQ(ft.chip_of_router(core), 0u);
  }
}

TEST(Topology, AssignChipsRejectsDegenerateCounts) {
  auto t = Topology::mesh(2, 2);
  EXPECT_THROW(t.assign_chips(0), std::invalid_argument);
  EXPECT_THROW(t.assign_chips(5), std::invalid_argument);
}

TEST(Topology, MemoryFootprintIsLinearInRouters) {
  // Function-routed fabrics hold O(R) state: quadrupling the router count
  // must not grow the footprint superlinearly (a packed R x D table would
  // grow 16x).
  const auto small = Topology::dragonfly(8, 17, 2);   // 136 routers
  const auto large = Topology::dragonfly(16, 33, 2);  // 528 routers
  const double ratio =
      static_cast<double>(large.memory_footprint_bytes()) /
      static_cast<double>(small.memory_footprint_bytes());
  EXPECT_LT(ratio, 8.0);  // ~4x routers with ~2x ports each
}

TEST(Topology, ForArchitectureDispatches) {
  hw::Architecture arch = hw::Architecture::cxquad();
  const auto tree = Topology::for_architecture(arch);
  EXPECT_EQ(tree.kind(), hw::InterconnectKind::kTree);
  EXPECT_EQ(tree.tile_count(), 4u);

  arch.interconnect = hw::InterconnectKind::kMesh;
  const auto mesh = Topology::for_architecture(arch);
  EXPECT_EQ(mesh.kind(), hw::InterconnectKind::kMesh);
  EXPECT_GE(mesh.tile_count(), arch.crossbar_count);

  arch.interconnect = hw::InterconnectKind::kRing;
  const auto ring = Topology::for_architecture(arch);
  EXPECT_EQ(ring.kind(), hw::InterconnectKind::kRing);
  EXPECT_EQ(ring.tile_count(), 4u);
}

TEST(Topology, NeighborSymmetry) {
  // If b is a neighbor of a then a is a neighbor of b (all topologies).
  for (const auto& topo :
       {Topology::mesh(3, 3), Topology::tree(8, 2), Topology::ring(5),
        Topology::dragonfly(4, 5, 1), Topology::dragonfly(3, 4, 2),
        Topology::fattree(4), Topology::fattree(6)}) {
    for (RouterId r = 0; r < topo.router_count(); ++r) {
      for (PortId p = 0; p < topo.port_count(r); ++p) {
        const RouterId nb = topo.neighbor(r, p);
        bool back = false;
        for (PortId q = 0; q < topo.port_count(nb); ++q) {
          back |= topo.neighbor(nb, q) == r;
        }
        EXPECT_TRUE(back) << "router " << r << " port " << p;
      }
    }
  }
}

TEST(Topology, RoutingReachesDestination) {
  // Following next_port from any router must arrive at any destination in
  // exactly hop_distance hops (routing functions emit only minimal
  // candidates), for all topology families.
  for (const auto& topo :
       {Topology::mesh(4, 3), Topology::tree(9, 3), Topology::ring(7),
        Topology::dragonfly(4, 5, 1), Topology::dragonfly(3, 4, 2),
        Topology::fattree(4), Topology::fattree(6)}) {
    for (TileId a = 0; a < topo.tile_count(); ++a) {
      for (TileId b = 0; b < topo.tile_count(); ++b) {
        RouterId r = topo.router_of_tile(a);
        const RouterId dst = topo.router_of_tile(b);
        std::uint32_t hops = 0;
        while (r != dst) {
          ASSERT_LE(++hops, topo.router_count()) << "loop " << a << "->" << b;
          r = topo.neighbor(r, topo.next_port(r, dst));
        }
        EXPECT_EQ(hops, topo.hop_distance(a, b)) << a << "->" << b;
      }
    }
  }
}

TEST(Topology, EveryCandidateLiesOnAMinimalPath) {
  // Adaptive candidates must all be productive: stepping through any of
  // them, then following first candidates, still arrives in hop_distance
  // hops total.
  std::vector<Topology> topos;
  // The deterministic mesh default has a single candidate everywhere; the
  // adaptive check needs a turn model with choice.
  topos.push_back(Topology::mesh(4, 4));
  topos.back().set_mesh_routing(MeshRouting::kWestFirst);
  topos.push_back(Topology::dragonfly(3, 4, 2));
  topos.push_back(Topology::fattree(4));
  for (const auto& topo : topos) {
    for (TileId a = 0; a < topo.tile_count(); ++a) {
      for (TileId b = 0; b < topo.tile_count(); ++b) {
        if (a == b) continue;
        const RouterId src = topo.router_of_tile(a);
        const RouterId dst = topo.router_of_tile(b);
        const Topology::RouteEntry e = topo.route_entry(src, dst);
        ASSERT_GE(e.count, 1u);
        ASSERT_LE(e.count, 3u);
        for (std::uint32_t c = 0; c < e.count; ++c) {
          RouterId r = topo.neighbor(src, e.port[c]);
          std::uint32_t hops = 1;
          while (r != dst) {
            ASSERT_LE(++hops, topo.router_count());
            r = topo.neighbor(r, topo.next_port(r, dst));
          }
          EXPECT_EQ(hops, topo.hop_distance(a, b))
              << a << "->" << b << " candidate " << c;
        }
      }
    }
  }
}

TEST(Topology, HopDistanceSymmetric) {
  // Shortest-path routing gives symmetric distances on these families.
  for (const auto& topo :
       {Topology::tree(8, 4), Topology::ring(9),
        Topology::dragonfly(4, 5, 1), Topology::fattree(4)}) {
    for (TileId a = 0; a < topo.tile_count(); ++a) {
      for (TileId b = 0; b < topo.tile_count(); ++b) {
        EXPECT_EQ(topo.hop_distance(a, b), topo.hop_distance(b, a));
      }
    }
  }
}

TEST(Topology, BoundsChecking) {
  const auto t = Topology::mesh(2, 2);
  EXPECT_THROW((void)t.router_of_tile(99), std::out_of_range);
  EXPECT_THROW((void)t.neighbor(0, 99), std::out_of_range);
  EXPECT_THROW((void)t.next_port(99, 0), std::out_of_range);
}

}  // namespace
}  // namespace snnmap::noc
