#include "noc/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "noc/simulator.hpp"
#include "util/thread_pool.hpp"

namespace snnmap::noc {
namespace {

SpikePacketEvent event(std::uint64_t cycle, std::uint32_t neuron,
                       TileId src, std::vector<TileId> dests) {
  SpikePacketEvent e;
  e.emit_cycle = cycle;
  e.source_neuron = neuron;
  e.source_tile = src;
  e.dest_tiles = std::move(dests);
  return e;
}

ScheduledFault link_fault(RouterId router, PortId port, std::uint64_t start,
                          std::uint64_t duration = 0) {
  ScheduledFault f;
  f.kind = ScheduledFault::Kind::kLink;
  f.router = router;
  f.port = port;
  f.start_cycle = start;
  f.duration_cycles = duration;
  return f;
}

ScheduledFault router_fault(RouterId router, std::uint64_t start) {
  ScheduledFault f;
  f.kind = ScheduledFault::Kind::kRouter;
  f.router = router;
  f.start_cycle = start;
  return f;
}

ScheduledFault tile_fault(TileId tile, std::uint64_t start) {
  ScheduledFault f;
  f.kind = ScheduledFault::Kind::kTile;
  f.tile = tile;
  f.start_cycle = start;
  return f;
}

TEST(FaultConfig, DefaultIsInertAndValid) {
  FaultConfig config;
  EXPECT_FALSE(config.any());
  EXPECT_NO_THROW(config.validate());
  FaultModel model(Topology::mesh(2, 2), config);
  EXPECT_FALSE(model.active());
  EXPECT_EQ(model.event_count(), 0u);
}

TEST(FaultConfig, ValidatesDegenerateValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  FaultConfig config;
  config.horizon_cycles = 1000;

  auto expect_rejected = [](FaultConfig c) {
    EXPECT_THROW(c.validate(), std::invalid_argument);
  };

  {
    FaultConfig c = config;
    c.link_fault_rate = nan;
    expect_rejected(c);
  }
  {
    FaultConfig c = config;
    c.router_fault_rate = inf;
    expect_rejected(c);
  }
  {
    FaultConfig c = config;
    c.tile_fault_rate = -0.1;
    expect_rejected(c);
  }
  {
    FaultConfig c = config;
    c.transient_link_rate = 1.5;
    expect_rejected(c);
  }
  {
    FaultConfig c = config;
    c.flit_drop_probability = 1.0;  // would drop every flit: dead config
    expect_rejected(c);
  }
  {
    FaultConfig c = config;
    c.flit_drop_probability = -0.5;
    expect_rejected(c);
  }
  {
    // Rates without a sampling horizon are meaningless.
    FaultConfig c;
    c.link_fault_rate = 0.1;
    c.horizon_cycles = 0;
    expect_rejected(c);
  }
  {
    FaultConfig c = config;
    c.transient_link_rate = 0.1;
    c.transient_duration_cycles = 0;
    expect_rejected(c);
  }

  // The boundary values themselves are legal.
  FaultConfig ok = config;
  ok.link_fault_rate = 1.0;
  ok.flit_drop_probability = 0.999;
  EXPECT_NO_THROW(ok.validate());
  EXPECT_TRUE(ok.any());
}

TEST(FaultModel, ScheduledFaultsRejectOutOfRangeIds) {
  const Topology topo = Topology::mesh(2, 2);
  {
    FaultConfig c;
    c.scheduled.push_back(router_fault(99, 0));
    EXPECT_THROW(FaultModel(topo, c), std::invalid_argument);
  }
  {
    FaultConfig c;
    c.scheduled.push_back(tile_fault(99, 0));
    EXPECT_THROW(FaultModel(topo, c), std::invalid_argument);
  }
  {
    FaultConfig c;
    c.scheduled.push_back(link_fault(0, 99, 0));
    EXPECT_THROW(FaultModel(topo, c), std::invalid_argument);
  }
}

TEST(FaultModel, TimelineIsDeterministic) {
  const Topology topo = Topology::mesh(4, 4);
  FaultConfig config;
  config.seed = 7;
  config.link_fault_rate = 0.3;
  config.tile_fault_rate = 0.3;
  config.transient_link_rate = 0.3;
  config.transient_duration_cycles = 50;
  config.horizon_cycles = 10'000;

  FaultModel a(topo, config);
  FaultModel b(topo, config);
  ASSERT_EQ(a.event_count(), b.event_count());
  EXPECT_GT(a.event_count(), 0u);

  // Advancing both step by step observes bit-identical liveness masks.
  FaultTransitions ta;
  FaultTransitions tb;
  for (std::uint64_t t = 0; t <= config.horizon_cycles; t += 500) {
    a.advance_to(t, ta);
    b.advance_to(t, tb);
    EXPECT_EQ(ta.changed, tb.changed);
    for (RouterId r = 0; r < topo.router_count(); ++r) {
      EXPECT_EQ(a.router_live(r), b.router_live(r));
    }
    for (TileId tile = 0; tile < topo.tile_count(); ++tile) {
      EXPECT_EQ(a.tile_live(tile), b.tile_live(tile));
    }
  }

  // A different seed produces a different timeline (with 16 routers and
  // these rates a collision would be astronomically unlikely).
  FaultConfig other = config;
  other.seed = 8;
  FaultModel c(topo, other);
  bool differs = c.event_count() != a.event_count();
  if (!differs) {
    FaultTransitions tc;
    c.advance_to(config.horizon_cycles, tc);
    for (RouterId r = 0; r < topo.router_count() && !differs; ++r) {
      differs = c.router_live(r) != a.router_live(r);
    }
    for (TileId tile = 0; tile < topo.tile_count() && !differs; ++tile) {
      differs = c.tile_live(tile) != a.tile_live(tile);
    }
  }
  EXPECT_TRUE(differs);
}

TEST(NocSimulatorFaults, ScheduledLinkFaultMakesDestUnroutable) {
  // 1x2 mesh: one link.  Kill it at cycle 100; the packet offered before
  // delivers, the one offered after is pruned as unroutable.
  const Topology topo = Topology::mesh(2, 1);
  const PortId port = topo.route_entry(0, 1).port[0];
  NocConfig config;
  config.faults.scheduled.push_back(link_fault(0, port, 100));
  NocSimulator sim(topo, config);
  const auto result = sim.run({event(0, 1, 0, {1}), event(200, 1, 0, {1})});
  EXPECT_EQ(result.stats.copies_delivered, 1u);
  EXPECT_EQ(result.stats.fault.link_faults, 1u);
  EXPECT_EQ(result.stats.fault.copies_unroutable, 1u);
  EXPECT_EQ(result.stats.fault.copies_lost(), 1u);
  ASSERT_EQ(result.delivered.size(), 1u);
  EXPECT_EQ(result.delivered[0].dest_tile, 1u);
}

TEST(NocSimulatorFaults, TransientLinkFaultHeals) {
  const Topology topo = Topology::mesh(2, 1);
  const PortId port = topo.route_entry(0, 1).port[0];
  NocConfig config;
  config.faults.scheduled.push_back(link_fault(0, port, 100, 300));
  NocSimulator sim(topo, config);
  // Offered during the outage -> lost; offered after the heal -> delivered.
  const auto result = sim.run({event(150, 1, 0, {1}), event(500, 1, 0, {1})});
  EXPECT_EQ(result.stats.fault.link_faults, 1u);
  EXPECT_EQ(result.stats.fault.links_restored, 1u);
  EXPECT_EQ(result.stats.fault.copies_unroutable, 1u);
  EXPECT_EQ(result.stats.copies_delivered, 1u);
}

TEST(NocSimulatorFaults, MeshReroutesAroundDeadLink) {
  // 2x2 mesh, XY routing 0 -> 3 goes east through router 1.  Killing link
  // 0-1 forces the fallback (south through router 2); the copy still
  // arrives and the detour is counted as a reroute.
  const Topology topo = Topology::mesh(2, 2);
  const PortId east = topo.route_entry(0, 1).port[0];
  NocConfig config;
  config.faults.scheduled.push_back(link_fault(0, east, 0));
  NocSimulator sim(topo, config);
  const auto result = sim.run({event(10, 1, 0, {3})});
  EXPECT_EQ(result.stats.copies_delivered, 1u);
  EXPECT_GE(result.stats.fault.reroutes, 1u);
  EXPECT_EQ(result.stats.fault.copies_lost(), 0u);
  ASSERT_EQ(result.delivered.size(), 1u);
  EXPECT_EQ(result.delivered[0].dest_tile, 3u);
}

TEST(NocSimulatorFaults, RouterFaultKillsAttachedTile) {
  const Topology topo = Topology::mesh(2, 2);
  NocConfig config;
  config.faults.scheduled.push_back(router_fault(3, 100));
  NocSimulator sim(topo, config);
  sim.begin();
  sim.enqueue({event(0, 1, 0, {3}), event(200, 1, 0, {3}),
               event(200, 2, 3, {0})});
  sim.run_until(kNoCycleLimit);
  // The dead router's tile is reported exactly once for remap triggers.
  const std::vector<TileId> dead = sim.take_dead_tiles();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], 3u);
  EXPECT_TRUE(sim.take_dead_tiles().empty());
  const auto result = sim.finish();
  EXPECT_EQ(result.stats.fault.router_faults, 1u);
  // Pre-fault packet delivered; post-fault: one unroutable dest, one
  // source-blocked packet.
  EXPECT_EQ(result.stats.copies_delivered, 1u);
  EXPECT_EQ(result.stats.fault.copies_blocked_at_source, 1u);
  // Both post-fault events contribute no flit: one dead source, one with
  // every destination unroutable.
  EXPECT_EQ(result.stats.fault.packets_blocked, 2u);
  EXPECT_EQ(result.stats.fault.copies_lost(), 2u);
}

TEST(NocSimulatorFaults, TileFaultLeavesFabricRouting) {
  // A dead tile silences its crossbar but its router still forwards: on a
  // 3x1 mesh with tile 1 dead, 0 -> 2 still routes through router 1.
  const Topology topo = Topology::mesh(3, 1);
  NocConfig config;
  config.faults.scheduled.push_back(tile_fault(1, 0));
  NocSimulator sim(topo, config);
  const auto result =
      sim.run({event(10, 1, 0, {2}), event(10, 2, 0, {1})});
  EXPECT_EQ(result.stats.fault.tile_faults, 1u);
  EXPECT_EQ(result.stats.copies_delivered, 1u);       // the through-route
  EXPECT_EQ(result.stats.fault.copies_unroutable, 1u);  // the dead sink
  ASSERT_EQ(result.delivered.size(), 1u);
  EXPECT_EQ(result.delivered[0].dest_tile, 2u);
}

TEST(NocSimulatorFaults, FlitDropsAreAccountedAndConserved) {
  FaultConfig faults;
  faults.seed = 11;
  faults.flit_drop_probability = 0.2;
  NocConfig config;
  config.faults = faults;
  NocSimulator sim(Topology::mesh(4, 4), config);
  std::vector<SpikePacketEvent> traffic;
  std::uint64_t offered = 0;
  for (std::uint32_t i = 0; i < 400; ++i) {
    traffic.push_back(
        event(i * 2, i % 64, i % 16, {static_cast<TileId>((i + 7) % 16)}));
    ++offered;
  }
  const auto result = sim.run(std::move(traffic));
  EXPECT_GT(result.stats.fault.flits_dropped, 0u);
  EXPECT_LT(result.stats.copies_delivered, offered);
  // Conservation: every offered copy either arrived or is accounted lost.
  EXPECT_EQ(result.stats.copies_delivered + result.stats.fault.copies_lost(),
            offered);
}

TEST(NocSimulatorFaults, FaultedRunsAreBitIdentical) {
  FaultConfig faults;
  faults.seed = 3;
  faults.link_fault_rate = 0.15;
  faults.tile_fault_rate = 0.1;
  faults.transient_link_rate = 0.2;
  faults.transient_duration_cycles = 200;
  faults.flit_drop_probability = 0.05;
  faults.horizon_cycles = 2'000;
  NocConfig config;
  config.faults = faults;

  const auto traffic = [] {
    std::vector<SpikePacketEvent> t;
    for (std::uint32_t i = 0; i < 300; ++i) {
      t.push_back(event(i * 5, i % 32, i % 16,
                        {static_cast<TileId>((i + 3) % 16),
                         static_cast<TileId>((i + 9) % 16)}));
    }
    return t;
  };

  NocSimulator a(Topology::mesh(4, 4), config);
  const auto ra = a.run(traffic());
  NocSimulator b(Topology::mesh(4, 4), config);
  const auto rb = b.run(traffic());

  EXPECT_EQ(ra.stats.copies_delivered, rb.stats.copies_delivered);
  EXPECT_EQ(ra.stats.fault.flits_dropped, rb.stats.fault.flits_dropped);
  EXPECT_EQ(ra.stats.fault.copies_lost(), rb.stats.fault.copies_lost());
  EXPECT_EQ(ra.stats.fault.reroutes, rb.stats.fault.reroutes);
  EXPECT_EQ(ra.stats.global_energy_pj, rb.stats.global_energy_pj);
  ASSERT_EQ(ra.delivered.size(), rb.delivered.size());
  for (std::size_t i = 0; i < ra.delivered.size(); ++i) {
    EXPECT_EQ(ra.delivered[i].source_neuron, rb.delivered[i].source_neuron);
    EXPECT_EQ(ra.delivered[i].dest_tile, rb.delivered[i].dest_tile);
    EXPECT_EQ(ra.delivered[i].recv_cycle, rb.delivered[i].recv_cycle);
  }
}

TEST(NocSimulatorFaults, OneShotAndWindowedSessionsMatchUnderFaults) {
  // The fault timeline is rebuilt by begin(), so a windowed session must
  // observe the identical fault sequence and delivery stream as run().
  FaultConfig faults;
  faults.seed = 5;
  faults.link_fault_rate = 0.2;
  faults.tile_fault_rate = 0.15;
  faults.flit_drop_probability = 0.1;
  faults.horizon_cycles = 3'000;
  NocConfig config;
  config.faults = faults;

  const auto traffic = [] {
    std::vector<SpikePacketEvent> t;
    for (std::uint32_t i = 0; i < 200; ++i) {
      t.push_back(event(i * 10, i % 32, i % 16,
                        {static_cast<TileId>((i + 5) % 16)}));
    }
    return t;
  };

  NocSimulator oneshot(Topology::mesh(4, 4), config);
  const auto whole = oneshot.run(traffic());

  NocSimulator windowed(Topology::mesh(4, 4), config);
  windowed.begin();
  std::vector<DeliveredSpike> stream;
  auto events = traffic();
  for (std::uint64_t window = 0; window < 10; ++window) {
    std::vector<SpikePacketEvent> slice;
    for (const auto& e : events) {
      if (e.emit_cycle / 250 == window) slice.push_back(e);
    }
    windowed.enqueue(std::move(slice));
    windowed.run_until((window + 1) * 250);
    for (auto& d : windowed.drain_delivered()) stream.push_back(d);
  }
  windowed.run_until(kNoCycleLimit);
  for (auto& d : windowed.drain_delivered()) stream.push_back(d);
  const auto tail = windowed.finish();

  EXPECT_EQ(tail.stats.copies_delivered, whole.stats.copies_delivered);
  EXPECT_EQ(tail.stats.fault.flits_dropped, whole.stats.fault.flits_dropped);
  EXPECT_EQ(tail.stats.fault.copies_lost(), whole.stats.fault.copies_lost());
  EXPECT_EQ(tail.stats.global_energy_pj, whole.stats.global_energy_pj);
  ASSERT_EQ(stream.size(), whole.delivered.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].source_neuron, whole.delivered[i].source_neuron);
    EXPECT_EQ(stream[i].dest_tile, whole.delivered[i].dest_tile);
    EXPECT_EQ(stream[i].recv_cycle, whole.delivered[i].recv_cycle);
  }
}

TEST(NocSimulatorFaults, ZeroFaultConfigMatchesDefaultRun) {
  // An explicitly constructed all-zero FaultConfig must not perturb the
  // fault-free stream (the inertness contract behind the golden fixtures).
  const auto traffic = [] {
    std::vector<SpikePacketEvent> t;
    for (std::uint32_t i = 0; i < 100; ++i) {
      t.push_back(event(i * 3, i % 16, i % 9,
                        {static_cast<TileId>((i + 4) % 9)}));
    }
    return t;
  };
  NocSimulator plain(Topology::mesh(3, 3), NocConfig{});
  const auto base = plain.run(traffic());
  NocConfig config;
  config.faults = FaultConfig{};
  NocSimulator gated(Topology::mesh(3, 3), config);
  const auto same = gated.run(traffic());
  EXPECT_FALSE(same.stats.fault.any());
  EXPECT_EQ(base.stats.copies_delivered, same.stats.copies_delivered);
  EXPECT_EQ(base.stats.global_energy_pj, same.stats.global_energy_pj);
  ASSERT_EQ(base.delivered.size(), same.delivered.size());
  for (std::size_t i = 0; i < base.delivered.size(); ++i) {
    EXPECT_EQ(base.delivered[i].recv_cycle, same.delivered[i].recv_cycle);
  }
}

TEST(NocSimulatorFaults, DyingRouterPurgesItsBuffers) {
  // Saturate router 1 (center of a 3x1 mesh) and kill it mid-flight: the
  // buffered copies are purged and counted, and the run still drains.
  const Topology topo = Topology::mesh(3, 1);
  NocConfig config;
  config.faults.scheduled.push_back(router_fault(1, 12));
  NocSimulator sim(topo, config);
  std::vector<SpikePacketEvent> traffic;
  for (std::uint32_t i = 0; i < 30; ++i) {
    traffic.push_back(event(i, i % 8, 0, {2}));
  }
  const auto result = sim.run(std::move(traffic));
  EXPECT_EQ(result.stats.fault.router_faults, 1u);
  EXPECT_GT(result.stats.fault.copies_lost(), 0u);
  EXPECT_TRUE(result.stats.drained);
  EXPECT_EQ(result.stats.copies_delivered + result.stats.fault.copies_lost(),
            30u);
}

TEST(NocSimulatorFaults, MaxCyclesHaltMidFlightConservesCopiesEverywhere) {
  // A faulted, congested run cut off by max_cycles mixes every loss
  // mechanism at once — copies dropped on lossy wires, killed in a dying
  // router, pruned as unroutable, blocked at a dead source, stranded in
  // flight at the halt, and stranded in the never-injected queue tail.
  // Every session shape (one-shot, windowed, batch-evaluated) and both
  // scheduling cores must report drained = false and satisfy the
  // conservation identity delivered + copies_lost() == offered exactly.
  const auto make_config = [](NocEngine engine) {
    NocConfig config;
    config.engine = engine;
    config.buffer_depth = 1;
    config.max_cycles = 60;
    config.faults.seed = 5;
    config.faults.flit_drop_probability = 0.1;
    config.faults.scheduled.push_back(router_fault(5, 30));
    config.faults.scheduled.push_back(tile_fault(3, 20));
    return config;
  };
  const auto make_traffic = [] {
    std::vector<SpikePacketEvent> t;
    std::uint64_t offered = 0;
    // Saturating multicast bursts toward one corner, plus a tail emitted
    // at/past max_cycles that the contract says is never injected.
    for (std::uint32_t i = 0; i < 120; ++i) {
      t.push_back(event(i / 4, i % 16, static_cast<TileId>(i % 16),
                        {static_cast<TileId>((i + 1) % 16),
                         static_cast<TileId>((i + 5) % 16)}));
    }
    for (std::uint32_t i = 0; i < 10; ++i) {
      t.push_back(event(60 + i * 10, i, 0, {15}));
    }
    for (const auto& ev : t) offered += ev.dest_tiles.size();
    return std::pair{std::move(t), offered};
  };
  const auto [traffic, offered] = make_traffic();
  const auto check = [offered = offered](const NocRunResult& result,
                                         const char* shape) {
    SCOPED_TRACE(shape);
    EXPECT_FALSE(result.stats.drained);
    EXPECT_EQ(result.stats.duration_cycles, 60u);
    EXPECT_GT(result.stats.fault.copies_stranded, 0u);
    EXPECT_EQ(result.stats.copies_delivered +
                  result.stats.fault.copies_lost(),
              offered);
  };
  for (const NocEngine engine : {NocEngine::kCycle, NocEngine::kEvent}) {
    SCOPED_TRACE(to_string(engine));
    const NocConfig config = make_config(engine);

    NocSimulator one_shot(Topology::mesh(4, 4), config);
    const auto whole = one_shot.run(traffic);
    check(whole, "one-shot");

    NocSimulator session(Topology::mesh(4, 4), config);
    session.begin();
    session.enqueue(traffic);
    for (std::uint64_t end = 7; !session.halted() && end < 200; end += 7) {
      session.run_until(end);
      session.close_energy_window();
    }
    EXPECT_TRUE(session.halted());
    const auto windowed = session.finish();
    check(windowed, "windowed");

    // Two copies on a 2-thread pool: one runs on the caller, one on a
    // worker.
    util::ThreadPool pool(2);
    const auto batch = pool.map(2, [&](std::size_t) {
      return NocSimulator(Topology::mesh(4, 4), config).run(traffic);
    });
    ASSERT_EQ(batch.size(), 2u);

    // All shapes agree on the full loss breakdown, not just the sum.
    EXPECT_EQ(windowed.stats.fault.copies_stranded,
              whole.stats.fault.copies_stranded);
    EXPECT_EQ(windowed.stats.copies_delivered, whole.stats.copies_delivered);
    for (const auto& b : batch) {
      check(b, "batch");
      EXPECT_EQ(b.stats.fault.copies_stranded,
                whole.stats.fault.copies_stranded);
      EXPECT_EQ(b.stats.copies_delivered, whole.stats.copies_delivered);
    }
  }
}

}  // namespace
}  // namespace snnmap::noc
