#include "noc/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace snnmap::noc {

const char* to_string(MeshRouting routing) noexcept {
  switch (routing) {
    case MeshRouting::kXY: return "xy";
    case MeshRouting::kYX: return "yx";
    case MeshRouting::kWestFirst: return "west-first";
    case MeshRouting::kNorthLast: return "north-last";
  }
  return "?";
}

MeshRouting mesh_routing_from_string(const std::string& name) {
  if (name == "xy") return MeshRouting::kXY;
  if (name == "yx") return MeshRouting::kYX;
  if (name == "west-first") return MeshRouting::kWestFirst;
  if (name == "north-last") return MeshRouting::kNorthLast;
  throw std::invalid_argument("unknown mesh routing: '" + name + "'");
}

void Topology::set_mesh_routing(MeshRouting routing) {
  if (kind_ != hw::InterconnectKind::kMesh) {
    throw std::logic_error("Topology: routing algorithms apply to mesh only");
  }
  routing_ = routing;
}

void Topology::check_router(RouterId router) const {
  if (router >= router_count()) {
    throw std::out_of_range("Topology: router id out of range");
  }
}

RouterId Topology::router_of_tile(TileId tile) const {
  if (tile >= tile_router_.size()) {
    throw std::out_of_range("Topology: tile id out of range");
  }
  return tile_router_[tile];
}

TileId Topology::tile_of_router(RouterId router) const {
  check_router(router);
  return router_tile_[router];
}

std::uint32_t Topology::port_count(RouterId router) const {
  check_router(router);
  return static_cast<std::uint32_t>(neighbors_[router].size());
}

RouterId Topology::neighbor(RouterId router, PortId port) const {
  check_router(router);
  if (port >= neighbors_[router].size()) {
    throw std::out_of_range("Topology: port id out of range");
  }
  return neighbors_[router][port];
}

PortId Topology::next_port(RouterId router, RouterId dst) const {
  check_router(router);
  check_router(dst);
  if (router == dst) return kLocalPort;
  PortId candidates[3];
  if (compute_candidates(router, dst, candidates) == 0) {
    throw std::logic_error("Topology: no route candidate");
  }
  return candidates[0];
}

std::uint32_t Topology::compute_candidates(RouterId router, RouterId dst,
                                           PortId out[3]) const {
  switch (kind_) {
    case hw::InterconnectKind::kMesh:
      return mesh_candidates(router, dst, out);
    case hw::InterconnectKind::kTree:
      return tree_candidates(router, dst, out);
    case hw::InterconnectKind::kRing:
      return ring_candidates(router, dst, out);
    case hw::InterconnectKind::kDragonfly:
      return dragonfly_candidates(router, dst, out);
    case hw::InterconnectKind::kFattree:
      return fattree_candidates(router, dst, out);
  }
  throw std::logic_error("Topology: unknown interconnect kind");
}

std::uint32_t Topology::fault_fallback_candidates(RouterId router,
                                                  RouterId dst,
                                                  PortId out[2]) const {
  if (kind_ != hw::InterconnectKind::kMesh || router == dst) return 0;
  const std::uint32_t w = mesh_width_;
  const auto x = static_cast<std::int32_t>(router % w);
  const auto y = static_cast<std::int32_t>(router / w);
  const std::int32_t dx = static_cast<std::int32_t>(dst % w) - x;
  const std::int32_t dy = static_cast<std::int32_t>(dst / w) - y;
  const auto port_toward = [&](RouterId next) -> PortId {
    for (PortId p = 0; p < neighbors_[router].size(); ++p) {
      if (neighbors_[router][p] == next) return p;
    }
    throw std::logic_error("Topology: next hop is not a neighbor");
  };
  std::uint32_t count = 0;
  if (dx != 0) out[count++] = port_toward(dx > 0 ? router + 1 : router - 1);
  if (dy != 0) out[count++] = port_toward(dy > 0 ? router + w : router - w);
  return count;
}

std::uint32_t Topology::mesh_candidates(RouterId router, RouterId dst,
                                        PortId out[3]) const {
  const std::uint32_t w = mesh_width_;
  const auto x = static_cast<std::int32_t>(router % w);
  const auto y = static_cast<std::int32_t>(router / w);
  const std::int32_t dx = static_cast<std::int32_t>(dst % w) - x;
  const std::int32_t dy = static_cast<std::int32_t>(dst / w) - y;

  const auto port_toward = [&](RouterId next) -> PortId {
    for (PortId p = 0; p < neighbors_[router].size(); ++p) {
      if (neighbors_[router][p] == next) return p;
    }
    throw std::logic_error("Topology: next hop is not a neighbor");
  };
  // Productive neighbor routers per direction ("north" = decreasing y).
  const RouterId east = router + 1;
  const RouterId west = router - 1;
  const RouterId south = router + w;
  const RouterId north = router - w;

  std::uint32_t count = 0;
  const auto add = [&](RouterId next) { out[count++] = port_toward(next); };
  switch (routing_) {
    case MeshRouting::kXY:
      if (dx != 0) {
        add(dx > 0 ? east : west);
      } else {
        add(dy > 0 ? south : north);
      }
      break;
    case MeshRouting::kYX:
      if (dy != 0) {
        add(dy > 0 ? south : north);
      } else {
        add(dx > 0 ? east : west);
      }
      break;
    case MeshRouting::kWestFirst:
      // Westward moves must complete first; otherwise fully adaptive among
      // the remaining productive directions {E, N, S}.
      if (dx < 0) {
        add(west);
      } else {
        if (dx > 0) add(east);
        if (dy < 0) add(north);
        if (dy > 0) add(south);
      }
      break;
    case MeshRouting::kNorthLast:
      // Turns out of the north direction are forbidden, so go north only
      // when it is the sole productive direction.
      if (dx > 0) add(east);
      if (dx < 0) add(west);
      if (dy > 0) add(south);
      if (count == 0 && dy < 0) add(north);
      break;
  }
  return count;
}

std::uint32_t Topology::tree_level_of(RouterId router) const noexcept {
  std::uint32_t level = 0;
  while (tree_level_start_[level + 1] <= router) ++level;
  return level;
}

std::uint32_t Topology::tree_candidates(RouterId router, RouterId dst,
                                        PortId out[3]) const {
  // Up/down routing on the unique tree path, closed form from level
  // metadata: node (l, p) covers leaves [p*a^l, (p+1)*a^l) and its child
  // at level l-1 containing leaf interval q is q lifted l-1 levels.
  const std::uint32_t lr = tree_level_of(router);
  const std::uint32_t ld = tree_level_of(dst);
  const std::uint32_t pr = router - tree_level_start_[lr];
  std::uint32_t pd = dst - tree_level_start_[ld];
  if (lr > ld) {
    // Lift dst's position to level lr - 1, then test subtree containment.
    for (std::uint32_t l = ld; l + 1 < lr; ++l) pd /= tree_arity_;
    if (pd / tree_arity_ == pr) {
      out[0] = pd - pr * tree_arity_;  // children occupy the first ports
      return 1;
    }
  }
  // Not below us: go up.  Leaves have only the parent port; internal
  // routers append the parent after their children.
  if (lr == 0) {
    out[0] = 0;
  } else {
    const std::uint32_t below =
        tree_level_start_[lr] - tree_level_start_[lr - 1];
    const std::uint32_t child_count =
        std::min(below, (pr + 1) * tree_arity_) - pr * tree_arity_;
    out[0] = child_count;
  }
  return 1;
}

std::uint32_t Topology::ring_candidates(RouterId router, RouterId dst,
                                        PortId out[3]) const {
  const std::uint32_t n = router_count();
  const std::uint32_t cw = (dst + n - router) % n;
  const std::uint32_t ccw = (router + n - dst) % n;
  // Port 0 is clockwise; ties (even rings, diametric pairs) go clockwise,
  // matching the seed BFS's lowest-port tie-break.  A 2-ring only has the
  // clockwise port.
  out[0] = cw <= ccw ? 0 : 1;
  return 1;
}

std::uint32_t Topology::dragonfly_candidates(RouterId router, RouterId dst,
                                             PortId out[3]) const {
  const std::uint32_t a = df_a_;
  const std::uint32_t g = df_g_;
  const std::uint32_t h = df_h_;
  const std::uint32_t j = router % a;
  const std::uint32_t gr = router / a;
  const std::uint32_t jd = dst % a;
  const std::uint32_t gd = dst / a;
  if (gr == gd) {
    // Complete local graph: one hop, port index skips the self slot.
    out[0] = jd < j ? jd : jd - 1;
    return 1;
  }
  // Cross-group: the destination group is reached through global channel
  // index idx (any replica t).  A minimal route is local hop to the
  // channel's owner (skipped when we own it), the global hop, and a local
  // hop at the arrival group (skipped when the channel lands on dst).
  const std::uint32_t idx = (gd + g - gr - 1) % g;
  const std::uint32_t replicas = df_channels_ / (g - 1);
  std::uint32_t best = static_cast<std::uint32_t>(-1);
  for (std::uint32_t t = 0; t < replicas; ++t) {
    const std::uint32_t owner = (t * (g - 1) + idx) / h;
    const std::uint32_t arrival = (t * (g - 1) + (g - 2 - idx)) / h;
    const std::uint32_t d = (owner != j ? 1u : 0u) + 1u +
                            (arrival != jd ? 1u : 0u);
    best = std::min(best, d);
  }
  // Offer every minimal first hop across replicas (deduplicated, capped at
  // 3): replica diversity is the adaptive / Valiant-style spreading hook.
  std::uint32_t count = 0;
  for (std::uint32_t t = 0; t < replicas && count < 3; ++t) {
    const std::uint32_t c = t * (g - 1) + idx;
    const std::uint32_t owner = c / h;
    const std::uint32_t arrival = (t * (g - 1) + (g - 2 - idx)) / h;
    const std::uint32_t d = (owner != j ? 1u : 0u) + 1u +
                            (arrival != jd ? 1u : 0u);
    if (d != best) continue;
    const PortId port = owner == j ? (a - 1) + (c - j * h)
                                   : (owner < j ? owner : owner - 1);
    bool seen = false;
    for (std::uint32_t k = 0; k < count; ++k) seen |= out[k] == port;
    if (!seen) out[count++] = port;
  }
  return count;
}

std::uint32_t Topology::fattree_candidates(RouterId router, RouterId dst,
                                           PortId out[3]) const {
  const std::uint32_t k = ft_k_;
  const std::uint32_t half = k / 2;
  const std::uint32_t edges = k * half;
  // Up to 3 minimal up/down ports from [base, base+span), first candidate
  // derived from the destination id so deterministic flows spread.
  const auto adaptive = [&](PortId base, std::uint32_t span) {
    const std::uint32_t take = std::min<std::uint32_t>(span, 3);
    const std::uint32_t start = dst % span;
    for (std::uint32_t i = 0; i < take; ++i) {
      out[i] = base + (start + i) % span;
    }
    return take;
  };
  if (router < edges) {  // edge switch (pod, e)
    if (dst < edges) {
      // Any aggregation switch is on a minimal path to another edge
      // (2 hops same pod, 4 hops across pods): adaptive up*.
      return adaptive(0, half);
    }
    if (dst < 2 * edges) {  // aggregation destination: fixed row
      out[0] = (dst - edges) % half;
      return 1;
    }
    out[0] = (dst - 2 * edges) / half;  // core row pins the up port
    return 1;
  }
  if (router < 2 * edges) {  // aggregation switch (pod, row)
    const std::uint32_t pod = (router - edges) / half;
    const std::uint32_t row = (router - edges) % half;
    if (dst < edges) {  // edge destination
      if (dst / half == pod) {
        out[0] = dst % half;  // unique down* port
        return 1;
      }
      return adaptive(half, half);  // any core of this row, then down
    }
    if (dst < 2 * edges) {  // aggregation destination
      const std::uint32_t dpod = (dst - edges) / half;
      const std::uint32_t drow = (dst - edges) % half;
      if (dpod == pod) return adaptive(0, half);  // down, any edge, back up
      if (drow == row) return adaptive(half, half);  // same core row, up
      // Different pod and row: descend first (down, cross rows in our pod,
      // then ride the destination row's cores) — one minimal family,
      // chosen so the route stays memoryless.
      return adaptive(0, half);
    }
    const std::uint32_t drow = (dst - 2 * edges) / half;
    if (drow == row) {
      out[0] = half + (dst - 2 * edges) % half;  // direct up to that core
      return 1;
    }
    return adaptive(0, half);  // down to an edge, then the other row
  }
  // Core switch (row, m): every destination pod hangs off one down port.
  if (dst >= 2 * edges) {
    return adaptive(0, k);  // sibling core: down to any pod's agg and back
  }
  const std::uint32_t dpod =
      dst < edges ? dst / half : (dst - edges) / half;
  out[0] = dpod;
  return 1;
}

std::uint32_t Topology::router_hop_distance(RouterId a, RouterId b) const {
  if (a == b) return 0;
  switch (kind_) {
    case hw::InterconnectKind::kMesh: {
      const std::uint32_t w = mesh_width_;
      const auto dx = static_cast<std::int32_t>(a % w) -
                      static_cast<std::int32_t>(b % w);
      const auto dy = static_cast<std::int32_t>(a / w) -
                      static_cast<std::int32_t>(b / w);
      return static_cast<std::uint32_t>((dx < 0 ? -dx : dx) +
                                        (dy < 0 ? -dy : dy));
    }
    case hw::InterconnectKind::kTree: {
      std::uint32_t la = tree_level_of(a);
      std::uint32_t lb = tree_level_of(b);
      std::uint32_t pa = a - tree_level_start_[la];
      std::uint32_t pb = b - tree_level_start_[lb];
      std::uint32_t hops = 0;
      while (la < lb) {
        pa /= tree_arity_;
        ++la;
        ++hops;
      }
      while (lb < la) {
        pb /= tree_arity_;
        ++lb;
        ++hops;
      }
      while (pa != pb) {
        pa /= tree_arity_;
        pb /= tree_arity_;
        hops += 2;
      }
      return hops;
    }
    case hw::InterconnectKind::kRing: {
      const std::uint32_t n = router_count();
      const std::uint32_t cw = (b + n - a) % n;
      return std::min(cw, n - cw);
    }
    case hw::InterconnectKind::kDragonfly: {
      const std::uint32_t ga = a / df_a_;
      const std::uint32_t gb = b / df_a_;
      if (ga == gb) return 1;
      const std::uint32_t j = a % df_a_;
      const std::uint32_t jd = b % df_a_;
      const std::uint32_t g = df_g_;
      const std::uint32_t idx = (gb + g - ga - 1) % g;
      const std::uint32_t replicas = df_channels_ / (g - 1);
      std::uint32_t best = static_cast<std::uint32_t>(-1);
      for (std::uint32_t t = 0; t < replicas; ++t) {
        const std::uint32_t owner = (t * (g - 1) + idx) / df_h_;
        const std::uint32_t arrival =
            (t * (g - 1) + (g - 2 - idx)) / df_h_;
        best = std::min(best, (owner != j ? 1u : 0u) + 1u +
                                  (arrival != jd ? 1u : 0u));
      }
      return best;
    }
    case hw::InterconnectKind::kFattree: {
      // Tile routers are edge switches: 2 hops inside a pod, 4 across.
      const std::uint32_t half = ft_k_ / 2;
      return a / half == b / half ? 2 : 4;
    }
  }
  throw std::logic_error("Topology: unknown interconnect kind");
}

std::uint32_t Topology::hop_distance(TileId a, TileId b) const {
  return router_hop_distance(router_of_tile(a), router_of_tile(b));
}

void Topology::assign_chips(std::uint32_t chips) {
  if (chips == 0) {
    throw std::invalid_argument("Topology: chip count must be >= 1");
  }
  if (chips > tile_count()) {
    throw std::invalid_argument(
        "Topology: more chips than tiles (every chip must hold >= 1 tile)");
  }
  chip_count_ = chips;
  offchip_link_count_ = 0;
  if (chips == 1) {
    router_chip_.clear();
    return;
  }
  const std::uint32_t tiles = tile_count();
  const std::uint32_t per_chip = (tiles + chips - 1) / chips;
  router_chip_.assign(router_count(), 0);
  for (RouterId r = 0; r < router_count(); ++r) {
    TileId anchor = router_tile_[r];
    if (anchor == kNoRouter) {
      // Tileless routers take the chip of the first tile they serve.
      if (kind_ == hw::InterconnectKind::kTree) {
        const std::uint32_t level = tree_level_of(r);
        std::uint64_t leaf = r - tree_level_start_[level];
        for (std::uint32_t l = 0; l < level; ++l) leaf *= tree_arity_;
        anchor = static_cast<TileId>(std::min<std::uint64_t>(
            leaf, tiles - 1));
      } else {  // fat-tree aggregation (its pod's first tile) or core
        const std::uint32_t half = ft_k_ / 2;
        const std::uint32_t edges = ft_k_ * half;
        anchor = r < 2 * edges ? ((r - edges) / half) * half : 0;
      }
    }
    router_chip_[r] = anchor / per_chip;
  }
  for (RouterId r = 0; r < router_count(); ++r) {
    for (const RouterId nb : neighbors_[r]) {
      if (nb > r && router_chip_[nb] != router_chip_[r]) {
        ++offchip_link_count_;
      }
    }
  }
}

std::uint32_t Topology::chip_of_router(RouterId router) const {
  check_router(router);
  return chip_count_ > 1 ? router_chip_[router] : 0;
}

std::size_t Topology::memory_footprint_bytes() const noexcept {
  std::size_t bytes = neighbors_.capacity() * sizeof(neighbors_[0]);
  for (const auto& nb : neighbors_) {
    bytes += nb.capacity() * sizeof(RouterId);
  }
  bytes += tile_router_.capacity() * sizeof(RouterId);
  bytes += router_tile_.capacity() * sizeof(TileId);
  bytes += tree_level_start_.capacity() * sizeof(RouterId);
  bytes += router_chip_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

void Topology::finish_tiles_one_per_router(std::uint32_t n) {
  tile_router_.resize(n);
  router_tile_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    tile_router_[i] = i;
    router_tile_[i] = i;
  }
}

Topology Topology::mesh(std::uint32_t width, std::uint32_t height) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("Topology: mesh dimensions must be > 0");
  }
  Topology t;
  t.kind_ = hw::InterconnectKind::kMesh;
  t.mesh_width_ = width;
  t.mesh_height_ = height;
  const std::uint32_t n = width * height;
  t.neighbors_.resize(n);
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      const RouterId r = y * width + x;
      auto& nb = t.neighbors_[r];
      if (x + 1 < width) nb.push_back(r + 1);
      if (x > 0) nb.push_back(r - 1);
      if (y + 1 < height) nb.push_back(r + width);
      if (y > 0) nb.push_back(r - width);
    }
  }
  t.finish_tiles_one_per_router(n);
  t.link_count_ = (width - 1) * height + width * (height - 1);
  return t;
}

Topology Topology::tree(std::uint32_t tiles, std::uint32_t arity) {
  if (tiles == 0) throw std::invalid_argument("Topology: tree needs tiles");
  if (arity < 2) throw std::invalid_argument("Topology: tree arity must be >= 2");
  Topology t;
  t.kind_ = hw::InterconnectKind::kTree;
  t.tree_arity_ = arity;
  // Level 0: one leaf router per tile; parents group `arity` children until
  // a single root remains.
  std::vector<RouterId> level;
  t.tree_level_start_.push_back(0);
  for (std::uint32_t i = 0; i < tiles; ++i) {
    t.neighbors_.emplace_back();
    level.push_back(i);
    t.router_tile_.push_back(i);
    t.tile_router_.push_back(i);
  }
  while (level.size() > 1) {
    t.tree_level_start_.push_back(
        static_cast<RouterId>(t.neighbors_.size()));
    std::vector<RouterId> parents;
    for (std::size_t i = 0; i < level.size(); i += arity) {
      const RouterId parent = static_cast<RouterId>(t.neighbors_.size());
      t.neighbors_.emplace_back();
      t.router_tile_.push_back(kNoRouter);
      for (std::size_t j = i; j < std::min(level.size(), i + arity); ++j) {
        t.neighbors_[parent].push_back(level[j]);
        t.neighbors_[level[j]].push_back(parent);
        ++t.link_count_;
      }
      parents.push_back(parent);
    }
    level = std::move(parents);
  }
  t.tree_level_start_.push_back(
      static_cast<RouterId>(t.neighbors_.size()));  // sentinel
  return t;
}

Topology Topology::ring(std::uint32_t tiles) {
  if (tiles < 2) {
    throw std::invalid_argument(
        "Topology: ring needs >= 2 tiles (a 0/1-node ring has no links)");
  }
  Topology t;
  t.kind_ = hw::InterconnectKind::kRing;
  t.neighbors_.resize(tiles);
  for (std::uint32_t i = 0; i < tiles; ++i) {
    t.neighbors_[i].push_back((i + 1) % tiles);  // clockwise
    if (tiles > 2) t.neighbors_[i].push_back((i + tiles - 1) % tiles);
  }
  t.finish_tiles_one_per_router(tiles);
  t.link_count_ = tiles > 2 ? tiles : 1;
  return t;
}

Topology Topology::dragonfly(std::uint32_t a, std::uint32_t g,
                             std::uint32_t h) {
  if (a < 2 || g < 2 || h < 1) {
    throw std::invalid_argument(
        "Topology: dragonfly needs a >= 2 routers per group, g >= 2 groups "
        "and h >= 1 global channels per router");
  }
  if (static_cast<std::uint64_t>(a) * h < g - 1) {
    throw std::invalid_argument(
        "Topology: dragonfly needs a*h >= g-1 (one full set of global "
        "channels per group)");
  }
  if (h > g - 1) {
    throw std::invalid_argument(
        "Topology: dragonfly needs h <= g-1 (more channels per router than "
        "peer groups would create parallel links)");
  }
  if (a - 1 + h >= kTableLocal) {
    throw std::invalid_argument(
        "Topology: dragonfly router radix must stay below 255 ports");
  }
  Topology t;
  t.kind_ = hw::InterconnectKind::kDragonfly;
  t.df_a_ = a;
  t.df_g_ = g;
  t.df_h_ = h;
  // Wire only full replica sets of the g-1 global channel indices; the
  // trailing channels (a*h mod (g-1) per group) stay dark.
  const std::uint32_t replicas = (a * h) / (g - 1);
  t.df_channels_ = replicas * (g - 1);
  const std::uint32_t n = a * g;
  t.neighbors_.resize(n);
  for (std::uint32_t gi = 0; gi < g; ++gi) {
    for (std::uint32_t j = 0; j < a; ++j) {
      auto& nb = t.neighbors_[gi * a + j];
      for (std::uint32_t p = 0; p < a; ++p) {  // complete local graph
        if (p != j) nb.push_back(gi * a + p);
      }
      const std::uint32_t c_end = std::min((j + 1) * h, t.df_channels_);
      for (std::uint32_t c = j * h; c < c_end; ++c) {
        const std::uint32_t idx = c % (g - 1);
        const std::uint32_t tr = c / (g - 1);
        const std::uint32_t dest_g = (gi + idx + 1) % g;
        // The reverse channel (same replica, involutive index g-2-idx)
        // fixes the peer router inside the destination group.
        const std::uint32_t peer = (tr * (g - 1) + (g - 2 - idx)) / h;
        nb.push_back(dest_g * a + peer);
      }
    }
  }
  t.finish_tiles_one_per_router(n);
  t.link_count_ = g * (a * (a - 1) / 2) + g * t.df_channels_ / 2;
  return t;
}

Topology Topology::fattree(std::uint32_t k) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument(
        "Topology: fattree radix k must be even and >= 2");
  }
  if (k >= kTableLocal) {
    throw std::invalid_argument(
        "Topology: fattree router radix must stay below 255 ports");
  }
  Topology t;
  t.kind_ = hw::InterconnectKind::kFattree;
  t.ft_k_ = k;
  const std::uint32_t half = k / 2;
  const std::uint32_t edges = k * half;        // one tile per edge switch
  const std::uint32_t cores = half * half;
  const std::uint32_t n = 2 * edges + cores;
  t.neighbors_.resize(n);
  t.router_tile_.assign(n, kNoRouter);
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t e = 0; e < half; ++e) {
      const RouterId edge = pod * half + e;
      t.tile_router_.push_back(edge);
      t.router_tile_[edge] = edge;
      for (std::uint32_t row = 0; row < half; ++row) {
        const RouterId agg = edges + pod * half + row;
        t.neighbors_[edge].push_back(agg);   // edge port `row`
        t.neighbors_[agg].push_back(edge);   // agg down port `e`
        ++t.link_count_;
      }
    }
  }
  // Aggregation up ports after the down ports (half..k-1), then each core
  // row's k pod ports in pod order.
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t row = 0; row < half; ++row) {
      const RouterId agg = edges + pod * half + row;
      for (std::uint32_t m = 0; m < half; ++m) {
        const RouterId core = 2 * edges + row * half + m;
        t.neighbors_[agg].push_back(core);
        ++t.link_count_;
      }
    }
  }
  for (std::uint32_t row = 0; row < half; ++row) {
    for (std::uint32_t m = 0; m < half; ++m) {
      const RouterId core = 2 * edges + row * half + m;
      for (std::uint32_t pod = 0; pod < k; ++pod) {
        t.neighbors_[core].push_back(edges + pod * half + row);
      }
    }
  }
  return t;
}

Topology Topology::for_architecture(const hw::Architecture& arch) {
  arch.validate();
  Topology t = [&] {
    switch (arch.interconnect) {
      case hw::InterconnectKind::kMesh:
        return mesh(arch.mesh_width(), arch.mesh_height());
      case hw::InterconnectKind::kTree:
        return tree(arch.crossbar_count, arch.tree_arity);
      case hw::InterconnectKind::kRing:
        return ring(arch.crossbar_count);
      case hw::InterconnectKind::kDragonfly:
        return dragonfly(arch.dragonfly_arity, arch.dragonfly_groups,
                         arch.dragonfly_global);
      case hw::InterconnectKind::kFattree:
        return fattree(arch.fattree_k);
    }
    throw std::logic_error("Topology: unknown interconnect kind");
  }();
  t.assign_chips(arch.chip_count);
  return t;
}

}  // namespace snnmap::noc
