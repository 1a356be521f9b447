// Exporter shape tests: the Chrome trace-event JSON (Perfetto-loadable)
// and CSV forms of a small hand-built stream, plus the stats-JSON writers
// over default-constructed reports (must emit structurally valid JSON with
// no NaN/inf literals).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cosim/fidelity.hpp"
#include "noc/metrics.hpp"
#include "obs/export.hpp"
#include "obs/stats_json.hpp"
#include "obs/trace.hpp"

namespace snnmap::obs {
namespace {

/// 4 routers on 2 chips, one tile per router.
TraceTrackInfo two_chip_info() {
  TraceTrackInfo info;
  info.router_chip = {0, 0, 1, 1};
  info.tile_router = {0, 1, 2, 3};
  return info;
}

std::vector<TraceEvent> sample_events() {
  return {
      {10, TraceEventType::kFlitInject, 0, 2, 77},
      {11, TraceEventType::kFlitHop, 2, 1, 77},
      {12, TraceEventType::kFlitDeliver, 3, 3, 77},
      {20, TraceEventType::kFaultTileDown, 2, 0, 0},
      {30, TraceEventType::kAerRetry, 77, 3, 1},
  };
}

TEST(ChromeTrace, EmitsMetadataAndInstantEvents) {
  std::ostringstream os;
  write_chrome_trace(os, sample_events(), two_chip_info());
  const std::string json = os.str();

  // Top-level shape.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("]}"), std::string::npos);

  // Process metadata: chips 0/1 plus the synthetic cosim lane (pid 2).
  EXPECT_NE(json.find("{\"name\":\"chip 0\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"chip 1\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"cosim\"}"), std::string::npos);

  // Fabric events land on (chip, router) tracks: the hop at router 2 is
  // chip 1.
  EXPECT_NE(json.find("{\"name\":\"flit-hop\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":11,\"pid\":1,\"tid\":2,\"args\":{\"router\":2,"
                      "\"port\":1,\"neuron\":77}}"),
            std::string::npos);
  // Tile events resolve through tile -> router: tile 2 lives on router 2,
  // chip 1; the one-word payload omits b / c.
  EXPECT_NE(json.find("{\"name\":\"fault-tile-down\",\"ph\":\"i\",\"s\":"
                      "\"t\",\"ts\":20,\"pid\":1,\"tid\":2,\"args\":{"
                      "\"tile\":2}}"),
            std::string::npos);
  // Protocol events ride the cosim pid (max chip + 1 = 2) with the event
  // type as tid.
  EXPECT_NE(json.find("{\"name\":\"aer-retry\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":30,\"pid\":2,"),
            std::string::npos);
}

TEST(ChromeTrace, EmptyStreamIsStillValidJson) {
  std::ostringstream os;
  write_chrome_trace(os, {}, two_chip_info());
  EXPECT_EQ(os.str(), "{\"traceEvents\":[\n]}\n");
}

TEST(TraceCsv, HeaderAndRows) {
  std::ostringstream os;
  write_trace_csv(os, sample_events());
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("cycle,type,a,b,c\n", 0), 0u);
  EXPECT_NE(csv.find("10,flit-inject,0,2,77\n"), std::string::npos);
  EXPECT_NE(csv.find("30,aer-retry,77,3,1\n"), std::string::npos);
  // Header + 5 rows.
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 6);
}

void expect_plausible_json_object(const std::string& json) {
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // JSON has no bare NaN / inf; degenerate doubles must become null.
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(StatsJson, DefaultReportsSerializeCleanly) {
  {
    std::ostringstream os;
    write_json(os, noc::NocStats{});
    expect_plausible_json_object(os.str());
    EXPECT_NE(os.str().find("\"packets_injected\":0"), std::string::npos);
  }
  {
    std::ostringstream os;
    write_json(os, cosim::FidelityReport{});
    expect_plausible_json_object(os.str());
    EXPECT_NE(os.str().find("\"congestion\":{\"monitored\":false"),
              std::string::npos);
  }
  {
    std::ostringstream os;
    write_json(os, cosim::ResilienceReport{});
    expect_plausible_json_object(os.str());
  }
  {
    std::ostringstream os;
    write_json(os, CongestionReport{});
    expect_plausible_json_object(os.str());
  }
  {
    // Degenerate doubles must serialize as null, never as bare nan/inf.
    CongestionReport rep;
    rep.max_ewma_occupancy = std::numeric_limits<double>::quiet_NaN();
    std::ostringstream os;
    write_json(os, rep);
    expect_plausible_json_object(os.str());
    EXPECT_NE(os.str().find("\"max_ewma_occupancy\":null"),
              std::string::npos);
  }
}

TEST(StatsJson, FidelityCarriesPerWindowAccumulators) {
  cosim::FidelityReport fid;
  fid.window_busy_cycles.add(3.0);
  fid.window_busy_cycles.add(5.0);
  fid.window_peak_link_flits.add(50.0);
  std::ostringstream os;
  write_json(os, fid);
  const std::string json = os.str();
  expect_plausible_json_object(json);
  EXPECT_NE(json.find("\"window_busy_cycles\":{\"count\":2,\"mean\":4,"),
            std::string::npos);
  EXPECT_NE(json.find("\"max\":5,\"sum\":8}"), std::string::npos);
  EXPECT_NE(json.find("\"window_peak_link_flits\":{\"count\":1,"
                      "\"mean\":50,\"stddev\":0,\"min\":50,\"max\":50,"
                      "\"sum\":50}"),
            std::string::npos);
}

}  // namespace
}  // namespace snnmap::obs
