// Golden determinism tests: the simulator must reproduce, bit for bit, the
// delivered-spike streams and statistics captured from the pre-refactor
// (PR 1 seed) simulator across topologies, routing algorithms, selection
// strategies, multicast modes, buffer depths, and the non-drained path.
// Fixtures are regenerated with the snnmap_noc_golden_capture tool.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "golden_scenarios.hpp"

namespace snnmap::noc {
namespace {

struct GoldenFixture {
  const char* name;
  std::uint64_t delivered_hash;
  std::uint64_t stats_hash;
  std::uint64_t snn_hash;
  std::uint64_t fault_hash;
  std::uint64_t copies_delivered;
  std::uint64_t duration_cycles;
  std::uint64_t link_hops;
};

constexpr GoldenFixture kGolden[] = {
#include "golden_fixtures.inc"
};

const GoldenFixture* find_fixture(const std::string& name) {
  for (const GoldenFixture& f : kGolden) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

TEST(NocGolden, EveryScenarioHasAFixture) {
  const auto scenarios = golden::scenarios();
  EXPECT_EQ(scenarios.size(), std::size(kGolden));
  for (const auto& s : scenarios) {
    EXPECT_NE(find_fixture(s.name), nullptr) << s.name;
  }
}

TEST(NocGolden, BitIdenticalToSeedSimulator) {
  // Both scheduling cores replay every fixture: the cycle loop is the
  // oracle the fixtures were captured on, and the event engine must be
  // indistinguishable from it on every digest field.
  for (const NocEngine engine : {NocEngine::kCycle, NocEngine::kEvent}) {
    for (auto& scenario : golden::scenarios()) {
      SCOPED_TRACE(std::string(scenario.name) + " / " + to_string(engine));
      const GoldenFixture* fixture = find_fixture(scenario.name);
      ASSERT_NE(fixture, nullptr);
      scenario.config.engine = engine;
      NocSimulator sim(scenario.topology, scenario.config);
      const golden::Digest d = golden::digest_of(sim.run(scenario.traffic));
      // Scalars first: a drift here localizes the failure far better than a
      // hash mismatch.
      EXPECT_EQ(d.copies_delivered, fixture->copies_delivered);
      EXPECT_EQ(d.duration_cycles, fixture->duration_cycles);
      EXPECT_EQ(d.link_hops, fixture->link_hops);
      EXPECT_EQ(d.delivered_hash, fixture->delivered_hash);
      EXPECT_EQ(d.stats_hash, fixture->stats_hash);
      EXPECT_EQ(d.snn_hash, fixture->snn_hash);
      EXPECT_EQ(d.fault_hash, fixture->fault_hash);
    }
  }
}

TEST(NocGolden, WindowedEnergySumsBitIdenticalToOneShotRun) {
  // Property over every golden scenario (all topologies, routing
  // algorithms, multicast modes, and the non-drained path): simulating the
  // same trace as a session of bounded windows with a per-window energy
  // close must reproduce the one-shot run() global energy bit for bit —
  // the window report's integer activity totals are exactly the session
  // counters, and both sides price them through the same
  // hw::EnergyModel::activity_energy_pj call.  Checked on both scheduling
  // cores: the event engine's skipped stall spans must land in the same
  // windows' busy_cycles the cycle oracle simulates one by one.
  for (const NocEngine engine : {NocEngine::kCycle, NocEngine::kEvent}) {
  for (auto& scenario : golden::scenarios()) {
    SCOPED_TRACE(std::string(scenario.name) + " / " + to_string(engine));
    scenario.config.engine = engine;
    NocSimulator one_shot(scenario.topology, scenario.config);
    const auto expected = one_shot.run(scenario.traffic);

    NocSimulator session(std::move(scenario.topology), scenario.config);
    session.begin();
    session.enqueue(scenario.traffic);
    const std::uint64_t window = 64;
    std::uint64_t end = 0;
    while (!session.idle() && !session.halted()) {
      end += window;
      session.run_until(end);
      session.close_energy_window();
    }
    const auto finished = session.finish();

    // Same cycle semantics, same counters...
    EXPECT_EQ(finished.stats.flits_injected, expected.stats.flits_injected);
    EXPECT_EQ(finished.stats.link_hops, expected.stats.link_hops);
    EXPECT_EQ(finished.stats.router_traversals,
              expected.stats.router_traversals);
    // ...and the windowed report loses nothing: integer window deltas sum
    // to the session totals, and the priced total is bit-identical to the
    // one-shot energy (which itself reports a single full-span window).
    const WindowEnergyReport& report = finished.window_energy;
    EXPECT_GE(report.windows.size(), 2u);
    std::uint64_t codec = 0;
    std::uint64_t links = 0;
    std::uint64_t routers = 0;
    std::uint64_t busy = 0;
    for (const WindowEnergySample& w : report.windows) {
      codec += w.codec_events();
      links += w.link_hops;
      routers += w.router_traversals;
      busy += w.busy_cycles;
    }
    EXPECT_EQ(codec, report.codec_events);
    EXPECT_EQ(links, report.link_hops);
    EXPECT_EQ(routers, report.router_traversals);
    EXPECT_EQ(busy, report.busy_cycles);
    EXPECT_EQ(links, expected.stats.link_hops);
    EXPECT_EQ(report.total_energy_pj, expected.stats.global_energy_pj);
    EXPECT_EQ(report.total_energy_pj, finished.stats.global_energy_pj);
    ASSERT_EQ(expected.window_energy.windows.size(), 1u);
    EXPECT_EQ(expected.window_energy.total_energy_pj,
              expected.stats.global_energy_pj);
  }
  }
}

TEST(NocGolden, NotDrainedScenarioReportsNotDrained) {
  for (auto& scenario : golden::scenarios()) {
    if (scenario.name != "mesh4x4_xy_not_drained") continue;
    NocSimulator sim(std::move(scenario.topology), scenario.config);
    const auto result = sim.run(scenario.traffic);
    EXPECT_FALSE(result.stats.drained);
    // A truncated run still reports internally consistent partial stats.
    EXPECT_EQ(result.stats.duration_cycles, scenario.config.max_cycles);
    EXPECT_EQ(result.delivered.size(), result.stats.copies_delivered);
    EXPECT_LT(result.stats.copies_delivered, result.stats.flits_injected);
    return;
  }
  FAIL() << "non-drained scenario missing";
}

}  // namespace
}  // namespace snnmap::noc
