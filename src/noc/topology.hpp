// Interconnect topologies for the global synapse network.
//
// Noxim is mesh-only; the paper's Noxim++ adds "different interconnect models
// for representative neuromorphic hardware" — NoC-tree (CxQuad) and NoC-mesh
// (TrueNorth, HiCANN) — and this layer extends them with the multi-chip
// scale-out fabrics (dragonfly, fat-tree).
//
// Routing is computed by compact per-topology *routing functions* — O(1) for
// mesh/ring/fat-tree, O(log R) for the tree, O(a*h/(g-1)) replica scan for
// the dragonfly — so a Topology holds only O(R) state (adjacency + per-kind
// metadata), never an R x D table.  The simulator calls them once per
// destination per hop (its route-compute stage keeps the result with the
// buffered flit), so no table is needed to keep them off the hot path.
// next_port() is route_entry()'s first candidate, bounds-checked and not
// packed into uint8 ports (pinned by tests/noc/route_function_test).
//
// A topology also carries the chip boundary: assign_chips(c) splits the tile
// array contiguously across `c` chips and tags every link whose endpoints
// sit on different chips as off-chip (link_is_offchip), which the simulator
// and the analytic cost model price with the distinct off-chip energy and
// extra per-hop latency.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/architecture.hpp"

namespace snnmap::noc {

/// Router/port identifiers.  Each *tile* (crossbar) attaches to exactly one
/// router through that router's dedicated local port; inter-router ports are
/// numbered 0..port_count-1.
using RouterId = std::uint32_t;
using TileId = std::uint32_t;
using PortId = std::uint32_t;

inline constexpr RouterId kNoRouter = static_cast<RouterId>(-1);
/// Sentinel returned by next_port when the packet has arrived and must be
/// ejected through the local port.
inline constexpr PortId kLocalPort = static_cast<PortId>(-1);

/// Mesh routing algorithms (Noxim's configurable "routing algorithm").
/// All four are turn-model deadlock-free; XY/YX are deterministic,
/// West-first and North-last are partially adaptive (multiple candidate
/// output ports on some hops, resolved by the simulator's selection
/// strategy).
enum class MeshRouting : std::uint8_t { kXY, kYX, kWestFirst, kNorthLast };

const char* to_string(MeshRouting routing) noexcept;
MeshRouting mesh_routing_from_string(const std::string& name);

class Topology {
 public:
  /// width x height mesh; one tile per router, row-major tile ids.
  static Topology mesh(std::uint32_t width, std::uint32_t height);

  /// k-ary tree with `tiles` leaf routers (one tile each); internal levels
  /// are built bottom-up until a single root.  CxQuad = tree(4, 4).
  static Topology tree(std::uint32_t tiles, std::uint32_t arity);

  /// Bidirectional ring of `tiles` routers (one tile each); needs >= 2
  /// tiles (a 0/1-node "ring" has no links to route over).
  static Topology ring(std::uint32_t tiles);

  /// Dragonfly: `g` groups of `a` routers (one tile each), each group a
  /// complete local graph, `h` global channels per router.  Global channel
  /// t*(g-1) + idx of group i connects to group (i + idx + 1) mod g (its
  /// reverse is channel t*(g-1) + (g-2-idx) of that group — same replica,
  /// involutive index).  Requires a >= 2, g >= 2, h >= 1 and a*h >= g-1;
  /// floor(a*h / (g-1)) full replica sets of the g-1 channels are wired.
  /// Routing offers every minimal candidate (direct or one local detour to
  /// a global-channel owner) across replicas — the adaptive selection among
  /// them is the Valiant-style load-spreading hook.
  static Topology dragonfly(std::uint32_t a, std::uint32_t g,
                            std::uint32_t h);

  /// Fat-tree of radix `k` (even, >= 2): k pods of k/2 edge and k/2
  /// aggregation switches plus (k/2)^2 cores; one tile per edge switch
  /// (k^2/2 tiles).  Up*/down* routing: the up phase is adaptive (every up
  /// port is minimal, first candidate derived from the destination id so
  /// deterministic flows spread), the down phase is unique.
  static Topology fattree(std::uint32_t k);

  /// Builds the topology matching an architecture description (validates
  /// it first) and applies its chip split.
  static Topology for_architecture(const hw::Architecture& arch);

  hw::InterconnectKind kind() const noexcept { return kind_; }
  std::uint32_t router_count() const noexcept {
    return static_cast<std::uint32_t>(neighbors_.size());
  }
  std::uint32_t tile_count() const noexcept {
    return static_cast<std::uint32_t>(tile_router_.size());
  }

  RouterId router_of_tile(TileId tile) const;
  /// Tile attached to a router, or kNoRouter if none (internal tree router,
  /// fat-tree aggregation/core switch).
  TileId tile_of_router(RouterId router) const;

  std::uint32_t port_count(RouterId router) const;
  /// Neighbor router reached through `port`.
  RouterId neighbor(RouterId router, PortId port) const;

  /// Deterministic next hop from `router` toward `dst` router; kLocalPort
  /// when router == dst.  Always the routing function's first candidate.
  PortId next_port(RouterId router, RouterId dst) const;

  /// Packed per-(router, dst) routing-table entry: every legal next-hop
  /// port toward `dst` (1 for the deterministic algorithms, up to 3 for the
  /// adaptive ones).  Every candidate is productive (lies on a minimal
  /// path), so any selection among them preserves minimality.  Ports are
  /// uint8; an entry for router == dst has count 1 and port[0] ==
  /// kTableLocal.
  struct RouteEntry {
    std::uint8_t count = 0;
    std::uint8_t port[3] = {0, 0, 0};
  };
  /// Sentinel port value inside RouteEntry marking local delivery.
  static constexpr std::uint8_t kTableLocal = 0xFF;

  /// Packed candidates for one (router, dst) pair, computed by the routing
  /// function.  Hot path: no bounds checks; ids must be < router_count()
  /// and every router must have < 255 ports (the NocSimulator constructor
  /// enforces both).
  RouteEntry route_entry(RouterId router, RouterId dst) const {
    RouteEntry e;
    if (router == dst) {
      e.count = 1;
      e.port[0] = kTableLocal;
      return e;
    }
    PortId candidates[3];
    const std::uint32_t count = compute_candidates(router, dst, candidates);
    e.count = static_cast<std::uint8_t>(count);
    for (std::uint32_t k = 0; k < count; ++k) {
      e.port[k] = static_cast<std::uint8_t>(candidates[k]);
    }
    return e;
  }

  /// Fault-fallback next hops toward `dst`: every *minimal* productive
  /// port, ignoring the turn model.  The fault-aware simulator consults
  /// these only after every route_entry() port is fault-masked — a
  /// mesh hop blocked on its X leg can still make progress on Y (and vice
  /// versa) even when the configured algorithm would forbid that turn.
  /// Mesh only (the other kinds either already enumerate every minimal
  /// replica — dragonfly, fat-tree — or have a unique minimal path whose
  /// loss is unroutable — tree, ring); returns 0 elsewhere and for
  /// router == dst.  `out` must hold 2.  Deadlock-freedom note: this can
  /// break the turn model's guarantee, which is acceptable under faults —
  /// the simulator counts unroutable/undrained outcomes instead of
  /// wedging, and max_cycles bounds any pathological cycle.
  std::uint32_t fault_fallback_candidates(RouterId router, RouterId dst,
                                          PortId out[2]) const;

  /// Mesh only; throws std::logic_error on other topologies.
  void set_mesh_routing(MeshRouting routing);
  MeshRouting mesh_routing() const noexcept { return routing_; }

  /// Number of links on the routing path between two tiles' routers
  /// (closed-form per topology; every candidate path has this length).
  std::uint32_t hop_distance(TileId a, TileId b) const;

  /// Sum of all inter-router links (each bidirectional link counted once).
  std::uint32_t link_count() const noexcept { return link_count_; }

  // --- chip boundary ------------------------------------------------------

  /// Splits the tile array contiguously across `chips` chips (tile t sits
  /// on chip t / ceil(tiles/chips)); tileless routers (tree internals,
  /// fat-tree aggs/cores) take the chip of the first tile they cover.
  /// Throws std::invalid_argument for chips == 0 or chips > tile_count().
  void assign_chips(std::uint32_t chips);
  std::uint32_t chip_count() const noexcept { return chip_count_; }
  std::uint32_t chip_of_router(RouterId router) const;
  /// True when the link behind (router, port) crosses a chip boundary.
  /// Hot path on the simulator's geometry setup: unchecked ids.
  bool link_is_offchip(RouterId router, PortId port) const noexcept {
    return chip_count_ > 1 &&
           router_chip_[router] != router_chip_[neighbors_[router][port]];
  }
  /// Bidirectional links crossing a chip boundary (0 on one chip).
  std::uint32_t offchip_link_count() const noexcept {
    return offchip_link_count_;
  }

  /// Heap bytes held by this topology (adjacency, tile maps, per-kind
  /// routing metadata and chip map).  The footprint bench report pins that
  /// function-routed construction is O(R).
  std::size_t memory_footprint_bytes() const noexcept;

 private:
  Topology() = default;
  void finish_tiles_one_per_router(std::uint32_t n);
  /// The per-topology routing function backing route_entry() and
  /// next_port().  Unchecked ids; router != dst.
  std::uint32_t compute_candidates(RouterId router, RouterId dst,
                                   PortId out[3]) const;
  std::uint32_t mesh_candidates(RouterId router, RouterId dst,
                                PortId out[3]) const;
  std::uint32_t tree_candidates(RouterId router, RouterId dst,
                                PortId out[3]) const;
  std::uint32_t ring_candidates(RouterId router, RouterId dst,
                                PortId out[3]) const;
  std::uint32_t dragonfly_candidates(RouterId router, RouterId dst,
                                     PortId out[3]) const;
  std::uint32_t fattree_candidates(RouterId router, RouterId dst,
                                   PortId out[3]) const;
  std::uint32_t router_hop_distance(RouterId a, RouterId b) const;
  /// Tree level of a router (0 = leaves) via the level-start index.
  std::uint32_t tree_level_of(RouterId router) const noexcept;
  void check_router(RouterId router) const;

  hw::InterconnectKind kind_ = hw::InterconnectKind::kMesh;
  std::uint32_t mesh_width_ = 0;   // mesh only
  std::uint32_t mesh_height_ = 0;  // mesh only
  MeshRouting routing_ = MeshRouting::kXY;
  std::uint32_t tree_arity_ = 0;   // tree only
  // tree only: first router id of each level (leaves first), plus a
  // trailing sentinel == router_count(); O(log R) entries.
  std::vector<RouterId> tree_level_start_;
  std::uint32_t df_a_ = 0;         // dragonfly: routers per group
  std::uint32_t df_g_ = 0;         // dragonfly: groups
  std::uint32_t df_h_ = 0;         // dragonfly: global channels per router
  std::uint32_t df_channels_ = 0;  // wired global channels per group
  std::uint32_t ft_k_ = 0;         // fat-tree radix
  // neighbors_[r] = adjacent routers, port index = position in this list.
  std::vector<std::vector<RouterId>> neighbors_;
  std::vector<RouterId> tile_router_;  // tile -> router
  std::vector<TileId> router_tile_;    // router -> tile or kNoRouter
  std::uint32_t link_count_ = 0;
  std::uint32_t chip_count_ = 1;
  std::vector<std::uint32_t> router_chip_;  // empty on one chip
  std::uint32_t offchip_link_count_ = 0;
};

}  // namespace snnmap::noc
