// Ablation: mesh routing algorithms x selection strategies under hotspot
// traffic.  Noxim exposes both as configuration ("routing algorithm,
// selection strategy, among others", Sec. IV); this harness shows where the
// partially adaptive turn models (West-first, North-last) with buffer-level
// selection pay off: column hotspots that deterministic XY funnels through
// one link.  The eight independent scenarios fan out across cores via
// util::ThreadPool::map.
#include <iostream>

#include "noc/simulator.hpp"
#include "noc/traffic_patterns.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace snnmap;

  // Hotspot trace on a 4x4 mesh: every tile streams packets to the two
  // right-column sinks, so XY funnels everything through the east column.
  // Shared with BM_NocSimulator and the golden scenarios.
  const auto make_traffic = [] {
    return noc::patterns::mesh_hotspot_traffic(/*seed=*/7, /*packets=*/3000);
  };

  struct Leg {
    noc::MeshRouting routing;
    noc::SelectionStrategy selection;
  };
  std::vector<Leg> legs;
  for (const auto routing :
       {noc::MeshRouting::kXY, noc::MeshRouting::kYX,
        noc::MeshRouting::kWestFirst, noc::MeshRouting::kNorthLast}) {
    for (const auto selection :
         {noc::SelectionStrategy::kFirstCandidate,
          noc::SelectionStrategy::kBufferLevel}) {
      legs.push_back({routing, selection});
    }
  }
  util::ThreadPool pool;
  const auto results = pool.map(legs.size(), [&](std::size_t i) {
    auto topo = noc::Topology::mesh(4, 4);
    topo.set_mesh_routing(legs[i].routing);
    noc::NocConfig config;
    config.buffer_depth = 2;
    config.selection = legs[i].selection;
    return noc::NocSimulator(std::move(topo), config).run(make_traffic());
  });

  util::Table table({"routing", "selection", "avg latency (cycles)",
                     "max latency", "drain time (cycles)",
                     "link hotspot (max/mean)", "energy (uJ)"});
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const auto& result = results[i];
    table.begin_row();
    table.cell(std::string(to_string(legs[i].routing)));
    table.cell(std::string(to_string(legs[i].selection)));
    table.cell(result.stats.latency_cycles.mean(), 1);
    table.cell(static_cast<std::size_t>(result.stats.max_latency_cycles));
    table.cell(static_cast<std::size_t>(result.stats.duration_cycles));
    table.cell(result.stats.link_hotspot_factor(), 2);
    table.cell(result.stats.global_energy_pj * 1e-6, 3);
  }
  std::cout << "=== Ablation: mesh routing algorithm x selection strategy "
               "(right-column hotspot) ===\n"
            << table.to_ascii() << '\n';
  std::cout << "Expected: adaptive turn models with buffer-level selection "
               "spread the hotspot over multiple columns, cutting average "
               "and tail latency vs deterministic XY; energy is nearly "
               "constant (minimal routes everywhere).\n";
  return 0;
}
