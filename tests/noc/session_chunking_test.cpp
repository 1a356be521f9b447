// Randomized session-chunking property test: splitting any golden scenario
// into arbitrary run_until() increments must be indistinguishable from the
// one-shot run() — same delivered stream (in delivery order), same
// stats_hash, same windowed-energy totals — on BOTH scheduling cores.
//
// This is the oracle that lets the event-driven engine (NocEngine::kEvent)
// exist at all: every seeded chunking forces different probe/skip points,
// window boundaries land mid-stall and mid-burst, and the digest pins that
// none of it is observable.  The reference side is always the cycle engine's
// one-shot run, i.e. the same semantics the golden fixtures were captured
// from.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "golden_scenarios.hpp"
#include "util/rng.hpp"

namespace snnmap::noc {
namespace {

golden::Digest one_shot_digest(const golden::Scenario& scenario,
                               NocEngine engine, std::uint64_t* duration) {
  NocConfig config = scenario.config;
  config.engine = engine;
  NocSimulator sim(scenario.topology, config);
  const NocRunResult result = sim.run(scenario.traffic);
  if (duration != nullptr) *duration = result.stats.duration_cycles;
  return golden::digest_of(result);
}

/// Replays `scenario` as a session chopped into seeded random increments
/// (closing an energy window at roughly every third boundary), then returns
/// the digest of the finished session plus the priced window total.
golden::Digest chunked_digest(const golden::Scenario& scenario,
                              NocEngine engine, std::uint64_t duration,
                              std::uint64_t seed) {
  NocConfig config = scenario.config;
  config.engine = engine;
  NocSimulator sim(scenario.topology, config);
  sim.begin();
  sim.enqueue(scenario.traffic);
  util::Rng rng(seed);
  std::uint64_t end = 0;
  while (!sim.halted()) {
    // Capping every chunk at the one-shot duration keeps bounded windows
    // from overshooting the drain cycle (run_until accounts a bounded
    // window's full span of idle virtual time, which would legitimately
    // grow duration_cycles past the one-shot value).
    end = std::min(end + 1 + rng.below(97), duration);
    sim.run_until(end);
    if (rng.below(3) == 0) sim.close_energy_window();
    if (end >= duration) break;
  }
  if (!sim.halted()) sim.run_until(kNoCycleLimit);
  const NocRunResult result = sim.finish();
  EXPECT_EQ(result.stats.duration_cycles, duration);
  // Window boundaries move with the seed, but the priced window total is an
  // exact integer-counter sum, so it always equals the session energy (and,
  // via the stats_hash equality below, the one-shot energy).
  EXPECT_EQ(result.window_energy.total_energy_pj,
            result.stats.global_energy_pj);
  return golden::digest_of(result);
}

TEST(NocSessionChunking, AnyChunkingBitIdenticalToOneShotOnBothEngines) {
  for (auto& scenario : golden::scenarios()) {
    std::uint64_t duration = 0;
    const golden::Digest expected =
        one_shot_digest(scenario, NocEngine::kCycle, &duration);
    // The event engine's one-shot run must already match the oracle …
    EXPECT_EQ(one_shot_digest(scenario, NocEngine::kEvent, nullptr)
                  .stats_hash,
              expected.stats_hash)
        << scenario.name;
    for (const NocEngine engine : {NocEngine::kCycle, NocEngine::kEvent}) {
      for (const std::uint64_t seed : {1ull, 77ull, 4242ull}) {
        SCOPED_TRACE(scenario.name + std::string(" / ") + to_string(engine) +
                     " / seed " + std::to_string(seed));
        // … and so must every random chunking of either engine.
        const golden::Digest d =
            chunked_digest(scenario, engine, duration, seed);
        EXPECT_EQ(d.copies_delivered, expected.copies_delivered);
        EXPECT_EQ(d.duration_cycles, expected.duration_cycles);
        EXPECT_EQ(d.link_hops, expected.link_hops);
        EXPECT_EQ(d.delivered_hash, expected.delivered_hash);
        EXPECT_EQ(d.stats_hash, expected.stats_hash);
        EXPECT_EQ(d.snn_hash, expected.snn_hash);
        EXPECT_EQ(d.fault_hash, expected.fault_hash);
      }
    }
  }
}

}  // namespace
}  // namespace snnmap::noc
