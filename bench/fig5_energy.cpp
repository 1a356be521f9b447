// Figure 5 — "Exploration with synthetic and realistic SNN-based
// applications": normalized energy consumption on the global synapse
// interconnect for NEUTRAMS, PACMAN and the proposed PSO partitioning, over
// the synthetic topologies 1x200, 1x600, 3x200, 4x200 (plus the other four
// evaluated in the text) and the four realistic applications HW, IS, HD, HE.
// Energy is normalized to NEUTRAMS (= 1.0), exactly as in the paper.
//
// Expected shape: PSO <= PACMAN <= NEUTRAMS everywhere, with the largest
// gains on sparse topologies (1x200) and near-parity on dense ones (4x200).
// The harness exits 1, naming the row, when PSO's raw global energy is above
// PACMAN's or NEUTRAMS's on any row.
#include <iostream>
#include <vector>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace snnmap;
  const bool quick = bench::quick_mode();

  // 8 synthetic topologies evaluated in Sec. V (4 plotted) + Table I apps.
  std::vector<std::string> workloads = {"1x200", "1x600", "3x200", "4x200",
                                        "1x400", "1x800", "2x200", "2x400",
                                        "HW",    "IS",    "HD",    "HE"};
  if (quick) workloads = {"1x200", "2x200", "HW", "HE"};

  util::Table table({"workload", "synapses", "NEUTRAMS", "PACMAN [8]",
                     "Proposed PSO", "PSO vs NEUTRAMS (%)",
                     "PSO vs PACMAN (%)"});
  util::Accumulator gain_vs_neutrams_synthetic;
  util::Accumulator gain_vs_pacman_synthetic;
  util::Accumulator gain_vs_neutrams_realistic;
  util::Accumulator gain_vs_pacman_realistic;
  std::vector<std::string> pso_above_baseline;

  for (const auto& name : workloads) {
    const snn::SnnGraph graph = apps::build_app(name, /*seed=*/42);

    core::MappingFlowConfig flow;
    flow.arch = bench::scaled_cxquad(graph);
    flow.pso = bench::default_pso();

    double energy[3] = {0.0, 0.0, 0.0};
    const core::PartitionerKind kinds[3] = {core::PartitionerKind::kNeutrams,
                                            core::PartitionerKind::kPacman,
                                            core::PartitionerKind::kPso};
    for (int k = 0; k < 3; ++k) {
      flow.partitioner = kinds[k];
      energy[k] = core::run_mapping_flow(graph, flow).global_energy_pj;
    }
    if (energy[2] > energy[0] || energy[2] > energy[1]) {
      pso_above_baseline.push_back(name);
    }
    const double base = energy[0] > 0.0 ? energy[0] : 1.0;
    const double vs_neutrams = (1.0 - energy[2] / base) * 100.0;
    const double vs_pacman =
        energy[1] > 0.0 ? (1.0 - energy[2] / energy[1]) * 100.0 : 0.0;
    const bool realistic = name == "HW" || name == "IS" || name == "HD" ||
                           name == "HE";
    (realistic ? gain_vs_neutrams_realistic : gain_vs_neutrams_synthetic)
        .add(vs_neutrams);
    (realistic ? gain_vs_pacman_realistic : gain_vs_pacman_synthetic)
        .add(vs_pacman);

    table.begin_row();
    table.cell(name);
    table.cell(graph.edge_count());
    table.cell(1.0, 3);
    table.cell(energy[1] / base, 3);
    table.cell(energy[2] / base, 3);
    table.cell(vs_neutrams, 1);
    table.cell(vs_pacman, 1);
  }

  std::cout << "=== Figure 5: normalized global-synapse interconnect energy "
               "(NEUTRAMS = 1.0) ===\n"
            << table.to_ascii() << '\n';
  std::cout << "Paper reports (synthetic): 2.4%-48.7% vs NEUTRAMS (avg "
               "20.2%), 1.5%-45.4% vs PACMAN (avg 17.2%).\n";
  std::cout << "Measured  (synthetic): avg " << gain_vs_neutrams_synthetic.mean()
            << "% vs NEUTRAMS [" << gain_vs_neutrams_synthetic.min() << "%, "
            << gain_vs_neutrams_synthetic.max() << "%], avg "
            << gain_vs_pacman_synthetic.mean() << "% vs PACMAN ["
            << gain_vs_pacman_synthetic.min() << "%, "
            << gain_vs_pacman_synthetic.max() << "%]\n";
  std::cout << "Paper reports (realistic): 27.0%-52.1% vs NEUTRAMS (avg 38%), "
               "21.2%-48.7% vs PACMAN (avg 33%).\n";
  std::cout << "Measured  (realistic): avg "
            << gain_vs_neutrams_realistic.mean() << "% vs NEUTRAMS, avg "
            << gain_vs_pacman_realistic.mean() << "% vs PACMAN\n";
  for (const auto& name : pso_above_baseline) {
    std::cerr << "fig5_energy: PSO's global energy is above PACMAN's or "
                 "NEUTRAMS's on row "
              << name << '\n';
  }
  return pso_above_baseline.empty() ? 0 : 1;
}
