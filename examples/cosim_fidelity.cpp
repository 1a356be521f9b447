// Example 7: closed-loop co-simulation fidelity across partitioners.
//
// The open-loop flow scores a mapping by latency and energy; the closed
// loop measures what congestion does to the *dynamics*.  This demo maps the
// synthetic 2x120 workload with three partitioners and sweeps the fabric
// speed (cycles_per_timestep) downward: as the per-step cycle budget
// shrinks, packets start missing their emission window, effective synaptic
// delays stretch, and the spike trains diverge from the ideal-interconnect
// run — at different rates for different mappings, because a mapping with
// fewer/shorter NoC journeys degrades later.  A bounded-receive-queue row
// turns hotspot congestion into outright spike loss.
//
// The second half walks the energy-vs-divergence frontier: per mapper, the
// DVFS policies (fixed / utilization-threshold / deadline-slack) rescale
// the fabric frequency window by window.  At a generous nominal budget the
// fabric idles most of every window, so the scaling policies ratchet down
// to their frequency floor and cut interconnect energy roughly
// quadratically (E/op ~ f^2) while the spike trains stay within a bounded
// divergence of the fixed-frequency run.
//
//   ./build/examples/cosim_fidelity
#include <cstdint>
#include <iostream>
#include <vector>

#include "apps/registry.hpp"
#include "core/config_io.hpp"
#include "core/framework.hpp"
#include "core/placement.hpp"
#include "cosim/cosim.hpp"
#include "cosim/fidelity.hpp"
#include "snn/simulator.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace snnmap;

  const std::uint64_t seed = 11;
  const std::string workload = "2x120";
  const snn::SnnGraph graph = apps::build_app(workload, seed);
  const apps::AppNetwork app_net = apps::build_app_network(workload, seed);

  auto arch = hw::Architecture::sized_for(graph.neuron_count(), 64,
                                          hw::InterconnectKind::kTree);
  std::cout << "workload: " << workload << " (" << graph.neuron_count()
            << " neurons, " << graph.total_spikes() << " spikes over "
            << graph.duration_ms() << " ms)\ndevice:   " << arch.describe()
            << "\n\n";

  const std::vector<core::PartitionerKind> mappers = {
      core::PartitionerKind::kPacman,
      core::PartitionerKind::kNeutrams,
      core::PartitionerKind::kPso,
  };
  const std::vector<std::uint32_t> budgets = {1024, 64, 32, 16, 8};

  std::vector<core::Partition> partitions;
  for (const auto mapper : mappers) {
    core::MappingFlowConfig flow;
    flow.arch = arch;
    flow.partitioner = mapper;
    flow.seed = seed;
    flow.pso.swarm_size = 24;
    flow.pso.iterations = 24;
    partitions.push_back(core::run_partitioner(graph, flow));
  }
  const noc::Topology topology = noc::Topology::for_architecture(arch);
  const core::Placement placement =
      core::identity_placement(arch.crossbar_count, topology);
  // One closed-loop run of mapper `m` under `config` (SNN config from the
  // app); every run shares the SNN seed.
  const auto closed_loop = [&](std::size_t m, cosim::CoSimConfig config) {
    config.snn = app_net.sim;
    snn::Network net = app_net.build();
    return cosim::CoSimulator(net, partitions[m], placement, topology, config)
        .run();
  };
  // Same network, seed and SNN config everywhere, so a single
  // ideal-interconnect run is the divergence baseline for every row.
  snn::Network ideal_net = app_net.build();
  const snn::SimulationResult ideal =
      snn::Simulator(ideal_net, app_net.sim).run();

  // One run per (mapper, cycles_per_timestep), fanned across the pool.
  util::ThreadPool pool;
  const auto outcomes =
      pool.map(mappers.size() * budgets.size(), [&](std::size_t i) {
        cosim::CoSimConfig config;
        config.cycles_per_timestep = budgets[i % budgets.size()];
        return closed_loop(i / budgets.size(), config);
      });

  util::Table table({"mapper", "cycles/step", "late copies", "miss %",
                     "mean transit", "divergence %"});
  for (std::size_t m = 0; m < mappers.size(); ++m) {
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      const cosim::CoSimResult& o = outcomes[m * budgets.size() + b];
      table.begin_row();
      table.cell(core::to_string(mappers[m]));
      table.cell(static_cast<std::size_t>(budgets[b]));
      table.cell(static_cast<std::size_t>(o.fidelity.deadline_misses +
                                          o.fidelity.undelivered));
      table.cell(util::format_double(o.fidelity.miss_fraction() * 100.0, 2));
      table.cell(util::format_double(o.fidelity.transit_cycles.mean(), 1));
      table.cell(util::format_double(
          cosim::spike_divergence(ideal.spikes, o.snn.spikes).fraction() *
              100.0,
          3));
    }
  }
  std::cout << table.to_ascii();

  // --- DVFS energy-vs-divergence frontier, per mapper -------------------
  // Nominal budget 1024 cycles/step leaves the fabric mostly idle: the
  // scaling policies ratchet the frequency to the floor and the per-event
  // energy drops quadratically, while spikes still land in their windows.
  const std::vector<cosim::DvfsPolicy> policies = [] {
    std::vector<cosim::DvfsPolicy> p(3);
    p[0].kind = cosim::DvfsPolicyKind::kFixed;
    p[1].kind = cosim::DvfsPolicyKind::kUtilizationThreshold;
    p[2].kind = cosim::DvfsPolicyKind::kDeadlineSlack;
    return p;
  }();
  std::cout << "\nDVFS frontier (nominal 1024 cycles/step, energy scale ~ "
               "f^2, floor f/4):\n";
  util::Table frontier({"mapper", "policy", "fabric E (uJ)", "vs fixed %",
                        "mean f/f0", "divergence %", "EDP (uJ*cyc)"});
  const auto dvfs_outcomes =
      pool.map(mappers.size() * policies.size(), [&](std::size_t i) {
        cosim::CoSimConfig config;
        config.cycles_per_timestep = 1024;
        config.dvfs = policies[i % policies.size()];
        return closed_loop(i / policies.size(), config);
      });
  for (std::size_t m = 0; m < mappers.size(); ++m) {
    const cosim::CoSimResult* row = &dvfs_outcomes[m * policies.size()];
    const double fixed_energy = row[0].fidelity.fabric_energy_pj;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const auto& fid = row[p].fidelity;
      frontier.begin_row();
      frontier.cell(core::to_string(mappers[m]));
      frontier.cell(cosim::to_string(policies[p].kind));
      frontier.cell(util::format_double(fid.fabric_energy_pj * 1e-6, 3));
      frontier.cell(util::format_double(
          fixed_energy > 0.0
              ? fid.fabric_energy_pj / fixed_energy * 100.0
              : 100.0,
          1));
      frontier.cell(util::format_double(fid.freq_scale.mean(), 3));
      frontier.cell(util::format_double(
          cosim::spike_divergence(ideal.spikes, row[p].snn.spikes)
                  .fraction() *
              100.0,
          3));
      frontier.cell(
          util::format_double(fid.energy_delay_product() * 1e-6, 2));
    }
  }
  std::cout << frontier.to_ascii();

  // Bounded receive queue at the most congested budget: hotspot crossbars
  // start refusing copies, so congestion becomes spike *loss*.
  cosim::CoSimConfig bounded;
  bounded.cycles_per_timestep = budgets.back();
  bounded.receive_queue_depth = 2;
  const cosim::CoSimResult dropped = closed_loop(0, bounded);  // pacman
  std::cout << "\nbounded receive queue (depth 2, " << budgets.back()
            << " cycles/step, pacman): " << dropped.fidelity.receive_drops
            << " copies dropped, divergence "
            << util::format_double(
                   cosim::spike_divergence(ideal.spikes, dropped.snn.spikes)
                           .fraction() *
                       100.0,
                   3)
            << " %\n";
  return 0;
}
