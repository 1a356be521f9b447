#include "noc/faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace snnmap::noc {
namespace {

void check_rate(double value, const char* name) {
  // Negated comparisons so NaN fails (parity with EnergyModel::validate).
  if (!(value >= 0.0) || !(value <= 1.0) || !std::isfinite(value)) {
    throw std::invalid_argument(std::string("FaultConfig: ") + name +
                                " must be a finite probability in [0, 1]");
  }
}

}  // namespace

bool FaultConfig::rate_sampled() const noexcept {
  return link_fault_rate > 0.0 || router_fault_rate > 0.0 ||
         tile_fault_rate > 0.0 || transient_link_rate > 0.0;
}

bool FaultConfig::any() const noexcept {
  return rate_sampled() || flit_drop_probability > 0.0 || !scheduled.empty();
}

void FaultConfig::validate() const {
  check_rate(link_fault_rate, "link_fault_rate");
  check_rate(router_fault_rate, "router_fault_rate");
  check_rate(tile_fault_rate, "tile_fault_rate");
  check_rate(transient_link_rate, "transient_link_rate");
  if (!(flit_drop_probability >= 0.0) || !(flit_drop_probability < 1.0) ||
      !std::isfinite(flit_drop_probability)) {
    throw std::invalid_argument(
        "FaultConfig: flit_drop_probability must be a finite probability in "
        "[0, 1) (a fabric dropping every flit can never deliver anything)");
  }
  if (rate_sampled() && horizon_cycles == 0) {
    throw std::invalid_argument(
        "FaultConfig: horizon_cycles must be > 0 when any fault rate is > 0 "
        "(random faults need a span of virtual time to be scheduled over; "
        "the co-simulator fills this with its lockstep timeline)");
  }
  if (transient_link_rate > 0.0 && transient_duration_cycles == 0) {
    throw std::invalid_argument(
        "FaultConfig: transient_duration_cycles must be > 0 when "
        "transient_link_rate is > 0 (a zero-length outage is no fault)");
  }
}

void FaultModel::push_link_fault(std::uint32_t ga, std::uint32_t gb,
                                 std::uint64_t start,
                                 std::uint64_t duration) {
  events_.push_back({start, Change::kLinkDown, ga, gb});
  if (duration != 0) {
    const std::uint64_t end =
        start > static_cast<std::uint64_t>(-1) - duration
            ? static_cast<std::uint64_t>(-1)
            : start + duration;
    events_.push_back({end, Change::kLinkUp, ga, gb});
  }
}

void FaultModel::push_router_fault(RouterId router, std::uint64_t start,
                                   std::uint64_t duration) {
  events_.push_back({start, Change::kRouterDown, router, 0});
  if (duration != 0) {
    events_.push_back({start + duration, Change::kRouterUp, router, 0});
  }
}

void FaultModel::push_tile_fault(TileId tile, std::uint64_t start,
                                 std::uint64_t duration) {
  events_.push_back({start, Change::kTileDown, tile, 0});
  if (duration != 0) {
    events_.push_back({start + duration, Change::kTileUp, tile, 0});
  }
}

FaultModel::FaultModel(const Topology& topology, const FaultConfig& config) {
  const std::uint32_t n = topology.router_count();
  // The same flat port geometry the simulator builds: global port index =
  // port_base[r] + p.
  std::vector<std::uint32_t> port_base(n + 1, 0);
  for (RouterId r = 0; r < n; ++r) {
    port_base[r + 1] = port_base[r] + topology.port_count(r);
  }
  link_down_.assign(port_base[n], 0);
  router_down_.assign(n, 0);
  tile_down_.assign(topology.tile_count(), 0);
  router_tile_.resize(n);
  for (RouterId r = 0; r < n; ++r) {
    router_tile_[r] = topology.tile_of_router(r);
  }
  drop_probability_ = config.flit_drop_probability;

  // Category-forked streams: adding draws in one category (e.g. raising
  // link_fault_rate) never perturbs another's schedule.
  util::Rng root(config.seed);
  util::Rng link_rng = root.fork();
  util::Rng transient_rng = root.fork();
  util::Rng router_rng = root.fork();
  util::Rng tile_rng = root.fork();
  drop_rng_ = root.fork();

  // Reverse-direction global port of (r, p): the input port at the
  // neighbor through which r's flits arrive.
  const auto reverse_global = [&](RouterId r, PortId p) -> std::uint32_t {
    const RouterId nb = topology.neighbor(r, p);
    for (PortId q = 0; q < topology.port_count(nb); ++q) {
      if (topology.neighbor(nb, q) == r) return port_base[nb] + q;
    }
    throw std::logic_error("FaultModel: asymmetric topology link");
  };

  // Canonical bidirectional-link enumeration: (r, p) with r < neighbor.
  const auto for_each_link = [&](auto&& fn) {
    for (RouterId r = 0; r < n; ++r) {
      for (PortId p = 0; p < topology.port_count(r); ++p) {
        if (topology.neighbor(r, p) < r) continue;  // counted from the peer
        fn(r, p);
      }
    }
  };

  // Explicit faults first (their relative order is the caller's), then the
  // seeded random ones in canonical category order.
  for (const ScheduledFault& f : config.scheduled) {
    switch (f.kind) {
      case ScheduledFault::Kind::kLink: {
        if (f.router >= n || f.port >= topology.port_count(f.router)) {
          throw std::invalid_argument(
              "FaultModel: scheduled link fault references an out-of-range "
              "router/port");
        }
        push_link_fault(port_base[f.router] + f.port,
                        reverse_global(f.router, f.port), f.start_cycle,
                        f.duration_cycles);
        break;
      }
      case ScheduledFault::Kind::kRouter:
        if (f.router >= n) {
          throw std::invalid_argument(
              "FaultModel: scheduled router fault references an "
              "out-of-range router");
        }
        push_router_fault(f.router, f.start_cycle, f.duration_cycles);
        break;
      case ScheduledFault::Kind::kTile:
        if (f.tile >= topology.tile_count()) {
          throw std::invalid_argument(
              "FaultModel: scheduled tile fault references an out-of-range "
              "tile");
        }
        push_tile_fault(f.tile, f.start_cycle, f.duration_cycles);
        break;
    }
  }
  if (config.link_fault_rate > 0.0) {
    for_each_link([&](RouterId r, PortId p) {
      if (!link_rng.chance(config.link_fault_rate)) return;
      push_link_fault(port_base[r] + p, reverse_global(r, p),
                      link_rng.below(config.horizon_cycles), 0);
    });
  }
  if (config.transient_link_rate > 0.0) {
    for_each_link([&](RouterId r, PortId p) {
      if (!transient_rng.chance(config.transient_link_rate)) return;
      push_link_fault(port_base[r] + p, reverse_global(r, p),
                      transient_rng.below(config.horizon_cycles),
                      config.transient_duration_cycles);
    });
  }
  if (config.router_fault_rate > 0.0) {
    for (RouterId r = 0; r < n; ++r) {
      if (!router_rng.chance(config.router_fault_rate)) continue;
      push_router_fault(r, router_rng.below(config.horizon_cycles), 0);
    }
  }
  if (config.tile_fault_rate > 0.0) {
    for (TileId t = 0; t < topology.tile_count(); ++t) {
      if (!tile_rng.chance(config.tile_fault_rate)) continue;
      push_tile_fault(t, tile_rng.below(config.horizon_cycles), 0);
    }
  }

  // Stable by cycle only: same-cycle events apply in the canonical
  // generation order above, making the whole timeline a pure function of
  // (topology, config).
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) {
                     return a.cycle < b.cycle;
                   });
}

void FaultModel::advance_to(std::uint64_t now, FaultTransitions& out) {
  while (next_event_ < events_.size() && events_[next_event_].cycle <= now) {
    const Event& e = events_[next_event_++];
    out.changed = true;
    switch (e.change) {
      case Change::kLinkDown:
        ++link_down_[e.a];
        ++link_down_[e.b];
        ++out.link_downs;
        break;
      case Change::kLinkUp:
        --link_down_[e.a];
        --link_down_[e.b];
        ++out.link_ups;
        break;
      case Change::kRouterDown: {
        ++out.router_downs;
        if (router_down_[e.a]++ == 0) {
          out.died_routers.push_back(e.a);
          // The attached tile goes silent with its router.
          const TileId tile = router_tile_[e.a];
          if (tile != kNoRouter && tile_down_[tile]++ == 0) {
            out.died_tiles.push_back(tile);
          }
        } else {
          const TileId tile = router_tile_[e.a];
          if (tile != kNoRouter) ++tile_down_[tile];
        }
        break;
      }
      case Change::kRouterUp: {
        --router_down_[e.a];
        const TileId tile = router_tile_[e.a];
        if (tile != kNoRouter) --tile_down_[tile];
        break;
      }
      case Change::kTileDown:
        ++out.tile_downs;
        if (tile_down_[e.a]++ == 0) {
          out.died_tiles.push_back(static_cast<TileId>(e.a));
        }
        break;
      case Change::kTileUp:
        --tile_down_[e.a];
        break;
    }
  }
}

}  // namespace snnmap::noc
