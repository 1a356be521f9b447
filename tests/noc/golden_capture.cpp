// Regenerates tests/noc/golden_fixtures.inc from the current simulator:
//
//   ./snnmap_noc_golden_capture > ../tests/noc/golden_fixtures.inc
//
// Only run this when the simulator's cycle-level semantics change ON
// PURPOSE; the committed fixtures pin the behavior of the original
// (pre-flat-engine) simulator so refactors can prove bit-identical output.
#include <cstdio>

#include "golden_scenarios.hpp"

int main() {
  using namespace snnmap::noc;
  std::printf(
      "// Generated by snnmap_noc_golden_capture; do not edit by hand.\n"
      "// One entry per golden::scenarios() element, captured pre-refactor.\n");
  for (auto& scenario : golden::scenarios()) {
    NocSimulator sim(std::move(scenario.topology), scenario.config);
    const golden::Digest d = golden::digest_of(sim.run(scenario.traffic));
    std::printf(
        "{\"%s\", 0x%016llXULL, 0x%016llXULL, 0x%016llXULL,\n"
        " 0x%016llXULL,\n"
        " %lluULL, %lluULL, %lluULL},\n",
        scenario.name.c_str(),
        static_cast<unsigned long long>(d.delivered_hash),
        static_cast<unsigned long long>(d.stats_hash),
        static_cast<unsigned long long>(d.snn_hash),
        static_cast<unsigned long long>(d.fault_hash),
        static_cast<unsigned long long>(d.copies_delivered),
        static_cast<unsigned long long>(d.duration_cycles),
        static_cast<unsigned long long>(d.link_hops));
  }
  return 0;
}
