// Trace determinism: the recorded event stream is a pure function of
// (config, topology, traffic) — bit-identical across the cycle and event
// scheduling cores and across any run_until / energy-window chunking of a
// session.  This is the observability analogue of the session-chunking
// golden test: the streaming digest covers every recorded event (ring
// eviction included), so digest equality pins the full stream.
//
// Also pinned here: enabling tracing must not perturb the simulation
// itself (golden digests unchanged), and the default config records
// nothing at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "golden_scenarios.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace snnmap::noc {
namespace {

struct TraceCapture {
  std::uint64_t digest = 0;
  std::uint64_t recorded = 0;
  golden::Digest sim;  ///< the golden digest of the same run
};

NocConfig traced(NocConfig config, NocEngine engine,
                 std::uint32_t ring_capacity = 4096) {
  config.engine = engine;
  config.trace.enabled = true;
  config.trace.ring_capacity = ring_capacity;
  return config;
}

TraceCapture one_shot(const golden::Scenario& scenario, NocEngine engine,
                      std::uint64_t* duration = nullptr) {
  NocSimulator sim(scenario.topology, traced(scenario.config, engine));
  const NocRunResult result = sim.run(scenario.traffic);
  if (duration != nullptr) *duration = result.stats.duration_cycles;
  return {result.trace_digest, result.trace_recorded,
          golden::digest_of(result)};
}

/// Seeded random chunking, mirroring session_chunking_test.cpp.
TraceCapture chunked(const golden::Scenario& scenario, NocEngine engine,
                     std::uint64_t duration, std::uint64_t seed) {
  NocSimulator sim(scenario.topology, traced(scenario.config, engine));
  sim.begin();
  sim.enqueue(scenario.traffic);
  util::Rng rng(seed);
  std::uint64_t end = 0;
  while (!sim.halted()) {
    end = std::min(end + 1 + rng.below(97), duration);
    sim.run_until(end);
    if (rng.below(3) == 0) sim.close_energy_window();
    if (end >= duration) break;
  }
  if (!sim.halted()) sim.run_until(kNoCycleLimit);
  const NocRunResult result = sim.finish();
  return {result.trace_digest, result.trace_recorded,
          golden::digest_of(result)};
}

TEST(TraceDeterminism, IdenticalAcrossEnginesAndChunkings) {
  for (auto& scenario : golden::scenarios()) {
    std::uint64_t duration = 0;
    const TraceCapture expected =
        one_shot(scenario, NocEngine::kCycle, &duration);
    EXPECT_GT(expected.recorded, 0u) << scenario.name;

    const TraceCapture event = one_shot(scenario, NocEngine::kEvent);
    EXPECT_EQ(event.digest, expected.digest) << scenario.name;
    EXPECT_EQ(event.recorded, expected.recorded) << scenario.name;

    for (const NocEngine engine : {NocEngine::kCycle, NocEngine::kEvent}) {
      for (const std::uint64_t seed : {1ull, 77ull, 4242ull}) {
        SCOPED_TRACE(scenario.name + std::string(" / ") + to_string(engine) +
                     " / seed " + std::to_string(seed));
        const TraceCapture c = chunked(scenario, engine, duration, seed);
        EXPECT_EQ(c.digest, expected.digest);
        EXPECT_EQ(c.recorded, expected.recorded);
      }
    }
  }
}

TEST(TraceDeterminism, TracingDoesNotPerturbTheSimulation) {
  for (auto& scenario : golden::scenarios()) {
    NocSimulator plain(scenario.topology, scenario.config);
    const golden::Digest off = golden::digest_of(plain.run(scenario.traffic));
    const TraceCapture on = one_shot(scenario, NocEngine::kCycle);
    EXPECT_EQ(on.sim.delivered_hash, off.delivered_hash) << scenario.name;
    EXPECT_EQ(on.sim.stats_hash, off.stats_hash) << scenario.name;
    EXPECT_EQ(on.sim.snn_hash, off.snn_hash) << scenario.name;
    EXPECT_EQ(on.sim.fault_hash, off.fault_hash) << scenario.name;
  }
}

TEST(TraceDeterminism, RingEvictionKeepsTheDigest) {
  const auto list = golden::scenarios();
  const golden::Scenario& scenario = list.front();
  // A 64-entry ring evicts nearly everything; the digest must still match
  // the full-capacity run because it streams at record time.
  NocSimulator tiny(scenario.topology,
                    traced(scenario.config, NocEngine::kCycle, 64));
  const NocRunResult small = tiny.run(scenario.traffic);
  const TraceCapture full = one_shot(scenario, NocEngine::kCycle);
  ASSERT_GT(small.trace_recorded, 64u);
  EXPECT_EQ(small.trace.size(), 64u);
  EXPECT_EQ(small.trace_digest, full.digest);
}

TEST(TraceDeterminism, DefaultConfigRecordsNothing) {
  const auto list = golden::scenarios();
  const golden::Scenario& scenario = list.front();
  NocSimulator sim(scenario.topology, scenario.config);
  const NocRunResult result = sim.run(scenario.traffic);
  EXPECT_EQ(result.trace_recorded, 0u);
  EXPECT_EQ(result.trace_digest, 0u);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_FALSE(sim.tracer().enabled());
}

TEST(TraceDeterminism, FaultedScenarioTracesTheScheduledTimeline) {
  // The faulted golden scenario must record its fault transitions with
  // *scheduled* cycles — identical on both engines and present even though
  // some transitions apply only after the traffic drains.
  for (auto& scenario : golden::scenarios()) {
    if (scenario.name != "mesh4x4_xy_multicast_faulted") continue;
    NocSimulator sim(scenario.topology,
                     traced(scenario.config, NocEngine::kCycle, 1 << 20));
    const NocRunResult result = sim.run(scenario.traffic);
    std::uint64_t fault_events = 0;
    for (const obs::TraceEvent& e : result.trace) {
      if (e.type >= obs::TraceEventType::kFaultLinkDown &&
          e.type <= obs::TraceEventType::kFaultTileUp) {
        ++fault_events;
      }
    }
    EXPECT_GT(fault_events, 0u);
    return;
  }
  FAIL() << "faulted golden scenario missing";
}

}  // namespace
}  // namespace snnmap::noc
