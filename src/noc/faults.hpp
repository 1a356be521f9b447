// Deterministic fault injection for the interconnect fabric.
//
// Real neuromorphic multi-chip deployments lose links, routers and whole
// tiles; the mapping-quality story must survive a degraded substrate.  This
// layer generates a *seeded, cycle-scheduled* fault timeline — permanent and
// transient link failures, router failures (the attached tile goes silent
// with its router), tile failures (the crossbar's NoC interface dies, the
// fabric keeps routing around it), and a per-traversal flit-drop
// probability — and exposes live liveness masks the NocSimulator consults
// in its cycle loop.
//
// Determinism contract: the whole fault timeline is a pure function of
// (topology, FaultConfig) — category-forked util::Rng streams, canonical
// link/router/tile iteration order — and it is rebuilt by every
// NocSimulator::begin(), so one-shot runs, windowed sessions and parallel
// batch scenarios observe bit-identical fault sequences.  With a
// default-constructed FaultConfig the model is inert and the simulator's
// fault branches are never taken, preserving the zero-fault golden streams
// bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/topology.hpp"
#include "util/rng.hpp"

namespace snnmap::noc {

/// One explicitly scheduled fault (on top of the seeded random ones).
struct ScheduledFault {
  enum class Kind : std::uint8_t { kLink, kRouter, kTile };
  Kind kind = Kind::kLink;
  /// kLink / kRouter: the router; kTile: ignored.
  RouterId router = 0;
  /// kLink only: the failing inter-router port of `router` (the reverse
  /// direction fails with it — a broken wire carries nothing either way).
  PortId port = 0;
  /// kTile only: the failing tile.
  TileId tile = 0;
  std::uint64_t start_cycle = 0;
  /// 0 = permanent; otherwise the fault heals after this many cycles.
  std::uint64_t duration_cycles = 0;
};

/// Seeded fault-injection settings.  Defaults are all-zero: no faults, no
/// drops — the inert config every existing run uses implicitly.
struct FaultConfig {
  std::uint64_t seed = 0;
  /// Probability that a given bidirectional link suffers one *permanent*
  /// failure within [0, horizon_cycles); in [0, 1].
  double link_fault_rate = 0.0;
  /// Probability that a given router dies permanently within the horizon
  /// (its attached tile goes silent with it); in [0, 1].
  double router_fault_rate = 0.0;
  /// Probability that a given tile's NoC interface dies permanently within
  /// the horizon (the fabric still routes *through* its router); in [0, 1].
  double tile_fault_rate = 0.0;
  /// Probability that a given link suffers one *transient* outage within
  /// the horizon, healing after transient_duration_cycles; in [0, 1].
  double transient_link_rate = 0.0;
  std::uint64_t transient_duration_cycles = 1000;
  /// Per link-traversal probability that a flit copy is lost on the wire;
  /// in [0, 1).  1.0 is rejected: a fabric that drops every flit cannot
  /// deliver anything, which is a dead config, not a fault model.
  double flit_drop_probability = 0.0;
  /// Span of virtual time the random faults are scheduled over.  Required
  /// (> 0) whenever any rate above is > 0; the co-simulator auto-fills it
  /// with its lockstep timeline (steps x cycles_per_timestep).
  std::uint64_t horizon_cycles = 0;
  /// Explicit faults, applied in addition to the seeded random ones.
  std::vector<ScheduledFault> scheduled;

  /// True when the link, router, tile or transient-link rate is > 0 (NaN
  /// compares false).  Those faults are sampled over [0, horizon_cycles),
  /// so they need a horizon; validate() rejects them without one.
  bool rate_sampled() const noexcept;

  /// True when any fault source is configured (rates, drops, or scheduled
  /// entries) — the simulator's gate for every fault branch.
  bool any() const noexcept;

  /// Throws std::invalid_argument on degenerate values: NaN/inf/negative
  /// rates, rates above 1, drop probability outside [0, 1), rates > 0 with
  /// horizon_cycles == 0, or transient faults with a zero duration
  /// (parity with hw::EnergyModel::validate()).
  void validate() const;
};

/// What one FaultModel::advance_to() call changed (the simulator purges
/// dead routers' queues and re-prunes buffered flits exactly when
/// `changed`).
struct FaultTransitions {
  bool changed = false;
  std::uint64_t link_downs = 0;    ///< bidirectional links newly failed
  std::uint64_t link_ups = 0;      ///< transient links healed
  std::uint64_t router_downs = 0;
  std::uint64_t tile_downs = 0;    ///< direct tile faults (router deaths add
                                   ///< their tile separately)
  std::vector<RouterId> died_routers;  ///< alive -> dead this call
  std::vector<TileId> died_tiles;      ///< alive -> dead (incl. router tiles)
};

/// The live fault state of one fabric: a sorted transition timeline plus
/// per-resource down-counters (a resource hit by overlapping faults stays
/// dead until every one of them heals).
class FaultModel {
 public:
  /// Inert model: everything live, nothing scheduled, no drops.
  FaultModel() = default;

  /// Builds the deterministic timeline.  `config` must already be
  /// validate()d (the NocSimulator constructor does).  Scheduled faults
  /// referencing out-of-range routers/ports/tiles throw
  /// std::invalid_argument here.
  FaultModel(const Topology& topology, const FaultConfig& config);

  /// True when the timeline is non-empty or drops are enabled.
  bool active() const noexcept {
    return !events_.empty() || drop_probability_ > 0.0;
  }

  /// Cycle of the next unapplied transition; ~0 when none remain.
  std::uint64_t next_transition_cycle() const noexcept {
    return next_event_ < events_.size() ? events_[next_event_].cycle
                                        : static_cast<std::uint64_t>(-1);
  }

  /// Applies every transition with cycle <= now, in timeline order.
  void advance_to(std::uint64_t now, FaultTransitions& out);

  /// Liveness by *global port index* (the simulator's port_base_[r] + p
  /// flattening; this model builds the identical prefix sums).
  bool link_live(std::uint32_t global_port) const noexcept {
    return link_down_[global_port] == 0;
  }
  bool router_live(RouterId router) const noexcept {
    return router_down_[router] == 0;
  }
  bool tile_live(TileId tile) const noexcept {
    return tile_down_[tile] == 0;
  }

  double drop_probability() const noexcept { return drop_probability_; }
  /// One Bernoulli draw from the dedicated drop stream.  Call only when
  /// drop_probability() > 0 so the draw sequence is a pure function of the
  /// (deterministic) sequence of link traversals.
  bool draw_drop() noexcept { return drop_rng_.chance(drop_probability_); }

  /// Total transitions in the timeline (applied or not).
  std::size_t event_count() const noexcept { return events_.size(); }

  enum class Change : std::uint8_t {
    kLinkDown,
    kLinkUp,
    kRouterDown,
    kRouterUp,
    kTileDown,
    kTileUp,
  };

  /// Read-only visit of the whole scheduled timeline, in order, applied or
  /// not: f(cycle, change, a, b) — kLink*: a/b are the two directed global
  /// port indices of the bidirectional link; kRouter*/kTile*: a is the
  /// router/tile id.  The observability tracer records the fault schedule
  /// from this at session begin (scheduled cycles are chunking-invariant;
  /// the cycle an idle fabric happens to *apply* a batch of transitions at
  /// is not).
  template <typename F>
  void for_each_event(F&& f) const {
    for (const Event& e : events_) f(e.cycle, e.change, e.a, e.b);
  }

 private:
  struct Event {
    std::uint64_t cycle = 0;
    Change change = Change::kLinkDown;
    /// kLink*: the two directed global port indices of the bidirectional
    /// link; kRouter*/kTile*: a = router/tile id, b unused.
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };

  void push_link_fault(std::uint32_t ga, std::uint32_t gb,
                       std::uint64_t start, std::uint64_t duration);
  void push_router_fault(RouterId router, std::uint64_t start,
                         std::uint64_t duration);
  void push_tile_fault(TileId tile, std::uint64_t start,
                       std::uint64_t duration);

  std::vector<Event> events_;  // sorted by cycle (stable: generation order)
  std::size_t next_event_ = 0;
  // Down-counters, not booleans: overlapping faults on one resource must
  // all heal before it revives.
  std::vector<std::uint16_t> link_down_;    // per directed global port
  std::vector<std::uint16_t> router_down_;  // per router
  std::vector<std::uint16_t> tile_down_;    // per tile
  std::vector<TileId> router_tile_;         // router -> tile or kNoRouter
  double drop_probability_ = 0.0;
  util::Rng drop_rng_{0};
};

}  // namespace snnmap::noc
