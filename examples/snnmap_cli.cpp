// snnmap_cli — full command-line driver for the mapping framework.
//
//   snnmap_cli <app> [--config file.yaml] [--partitioner pso|pacman|...]
//              [--crossbar-size N]
//              [--interconnect tree|mesh|ring|dragonfly|fattree]
//              [--chips N] [--seed S] [--threads N] [--csv out.csv]
//              [--cosim [--faults] [--retry] [--trace FILE] [--monitor]]
//              [--stats-json FILE] [--dump-config] [--verbose]
//
// <app> is a Table I name (HW, IS, HD, HE, or the full names) or a synthetic
// topology "MxN"; usage() lists every flag.  The effective configuration is
// echoed so any run can be reproduced from a config file alone.  A --config
// file may set only the keys of the serialized schema (core/config_io.hpp);
// any other key exits 1 with an error naming it.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "core/analysis.hpp"
#include "core/config_io.hpp"
#include "core/framework.hpp"
#include "cosim/cosim.hpp"
#include "cosim/fidelity.hpp"
#include "obs/export.hpp"
#include "obs/stats_json.hpp"
#include "snn/simulator.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: snnmap_cli <app> [options]\n"
         "  <app>                 HW | IS | HD | HE | MxN (e.g. 2x200)\n"
         "  --config FILE         load a YAML-subset flow configuration "
         "(an unknown key is an error)\n"
         "  --partitioner NAME    pso | pacman | neutrams | annealing | "
         "genetic\n"
         "  --crossbar-size N     neurons per crossbar (architecture sized "
         "to fit)\n"
         "  --interconnect KIND   tree | mesh | ring | dragonfly | fattree\n"
         "  --chips N             split the fabric across N chips "
         "(boundary links pay off-chip energy/latency)\n"
         "  --seed S              workload + optimizer seed (default: "
         "the config's flow.seed, 42)\n"
         "  --threads N           fitness-evaluation workers (0 = all "
         "cores, 1 = serial; same result either way)\n"
         "  --csv FILE            also write the report row as CSV\n"
         "  --cosim               also run closed-loop SNN x NoC "
         "co-simulation of the mapping and report fidelity\n"
         "  --cosim-cycles N      NoC cycles per SNN timestep (default "
         "arch.cycles_per_ms * dt)\n"
         "  --faults              co-simulate over a faulty fabric "
         "(canonical seeded rates; implies --cosim)\n"
         "  --fault-seed S        fault-timeline seed (implies --faults)\n"
         "  --fault-link-rate R   per-link permanent-failure probability\n"
         "  --fault-router-rate R per-router permanent-failure probability\n"
         "  --fault-tile-rate R   per-tile permanent-failure probability\n"
         "  --fault-drop-prob P   per-link-traversal flit-drop probability\n"
         "  --retry               enable the AER retransmit protocol\n"
         "  --remap-on-failure    evacuate dead crossbars mid-run "
         "(graceful degradation)\n"
         "  --trace FILE          write a Chrome/Perfetto trace-event JSON "
         "of the co-sim run (implies --cosim)\n"
         "  --trace-csv FILE      write the same trace as CSV "
         "(implies --cosim)\n"
         "  --monitor             enable the per-link congestion monitor "
         "and report persistently hot links (implies --cosim)\n"
         "  --stats-json FILE     dump run statistics as JSON (NoC stats; "
         "plus fidelity / resilience / trace counts under --cosim)\n"
         "  --analyze             print per-crossbar load / traffic "
         "analysis\n"
         "  --dump-config         print the effective configuration and "
         "exit\n"
         "  --verbose             info-level logging\n";
}

/// Parses a decimal integer that fits `UInt`.  std::stoull alone would
/// accept a sign or leading blanks (wrapping "-1" to the maximum), and a
/// narrowing cast would then truncate values past the target's range.
template <typename UInt>
UInt parse_uint(const char* flag, const std::string& text) {
  try {
    if (text.empty() || text[0] < '0' || text[0] > '9') {
      throw std::invalid_argument("not a plain decimal");
    }
    std::size_t pos = 0;
    const auto value = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing chars");
    if (value > std::numeric_limits<UInt>::max()) {
      throw std::out_of_range("exceeds the flag's range");
    }
    return static_cast<UInt>(value);
  } catch (const std::exception&) {
    std::cerr << "error: " << flag << " expects a non-negative integer, got '"
              << text << "'\n";
    std::exit(1);
  }
}

double parse_prob(const char* flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing chars");
    if (!(value >= 0.0) || !(value <= 1.0)) {
      throw std::invalid_argument("out of range");
    }
    return value;
  } catch (const std::exception&) {
    std::cerr << "error: " << flag << " expects a probability in [0, 1], "
              "got '" << text << "'\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snnmap;
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string app = argv[1];
  if (!apps::is_known_app(app)) {
    std::cerr << "error: unknown app '" << app << "'\n";
    usage();
    return 1;
  }

  util::Config file_config;
  std::string csv_path;
  std::uint64_t seed = 0;
  bool seed_set = false;  // unset = keep the config's flow.seed
  std::uint32_t threads = 0;
  bool threads_set = false;
  std::uint32_t crossbar_size = 0;
  std::uint32_t chips = 0;  // 0 = keep the config's chip count
  std::string partitioner_override;
  std::string interconnect_override;
  bool dump_config = false;
  bool analyze = false;
  bool cosim = false;
  std::uint32_t cosim_cycles = 0;  // 0 = derive from the architecture
  bool faults = false;
  bool fault_seed_set = false;
  std::uint64_t fault_seed = 1;
  double fault_link_rate = -1.0;    // < 0 = keep the canonical default
  double fault_router_rate = -1.0;
  double fault_tile_rate = -1.0;
  double fault_drop_prob = -1.0;
  bool retry = false;
  bool remap_on_failure = false;
  std::string trace_path;
  std::string trace_csv_path;
  std::string stats_json_path;
  bool monitor = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << flag << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--config") {
      try {
        file_config = util::Config::load_file(need_value("--config"));
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
      }
    } else if (arg == "--partitioner") {
      partitioner_override = need_value("--partitioner");
    } else if (arg == "--crossbar-size") {
      crossbar_size = parse_uint<std::uint32_t>(
          "--crossbar-size", need_value("--crossbar-size"));
    } else if (arg == "--interconnect") {
      interconnect_override = need_value("--interconnect");
    } else if (arg == "--chips") {
      chips = parse_uint<std::uint32_t>("--chips", need_value("--chips"));
    } else if (arg == "--seed") {
      seed = parse_uint<std::uint64_t>("--seed", need_value("--seed"));
      seed_set = true;
    } else if (arg == "--threads") {
      threads =
          parse_uint<std::uint32_t>("--threads", need_value("--threads"));
      threads_set = true;
    } else if (arg == "--csv") {
      csv_path = need_value("--csv");
    } else if (arg == "--dump-config") {
      dump_config = true;
    } else if (arg == "--cosim") {
      cosim = true;
    } else if (arg == "--cosim-cycles") {
      cosim_cycles = parse_uint<std::uint32_t>(
          "--cosim-cycles", need_value("--cosim-cycles"));
      cosim = true;
    } else if (arg == "--faults") {
      faults = true;
      cosim = true;
    } else if (arg == "--fault-seed") {
      fault_seed = parse_uint<std::uint64_t>("--fault-seed",
                                             need_value("--fault-seed"));
      fault_seed_set = true;
      faults = true;
      cosim = true;
    } else if (arg == "--fault-link-rate") {
      fault_link_rate =
          parse_prob("--fault-link-rate", need_value("--fault-link-rate"));
      faults = true;
      cosim = true;
    } else if (arg == "--fault-router-rate") {
      fault_router_rate = parse_prob("--fault-router-rate",
                                     need_value("--fault-router-rate"));
      faults = true;
      cosim = true;
    } else if (arg == "--fault-tile-rate") {
      fault_tile_rate =
          parse_prob("--fault-tile-rate", need_value("--fault-tile-rate"));
      faults = true;
      cosim = true;
    } else if (arg == "--fault-drop-prob") {
      fault_drop_prob =
          parse_prob("--fault-drop-prob", need_value("--fault-drop-prob"));
      faults = true;
      cosim = true;
    } else if (arg == "--retry") {
      retry = true;
      cosim = true;
    } else if (arg == "--remap-on-failure") {
      remap_on_failure = true;
      cosim = true;
    } else if (arg == "--trace") {
      trace_path = need_value("--trace");
      cosim = true;
    } else if (arg == "--trace-csv") {
      trace_csv_path = need_value("--trace-csv");
      cosim = true;
    } else if (arg == "--monitor") {
      monitor = true;
      cosim = true;
    } else if (arg == "--stats-json") {
      stats_json_path = need_value("--stats-json");
    } else if (arg == "--analyze") {
      analyze = true;
    } else if (arg == "--verbose") {
      util::set_log_level(util::LogLevel::Info);
    } else {
      std::cerr << "error: unknown option '" << arg << "'\n";
      usage();
      return 1;
    }
  }

  try {
    core::MappingFlowConfig flow = core::mapping_flow_from_config(file_config);
    if (seed_set) flow.seed = seed;
    if (threads_set) {
      flow.pso.threads = threads;
      flow.genetic.threads = threads;
    }
    if (!partitioner_override.empty()) {
      flow.partitioner = core::partitioner_from_string(partitioner_override);
    }
    if (!interconnect_override.empty()) {
      flow.arch.interconnect =
          hw::interconnect_from_string(interconnect_override);
    }

    // Fault rates without an explicit horizon rely on the co-simulator's
    // auto-filled lockstep timeline; the open-loop mapping flow has no such
    // timeline, so such a config is lifted out of the flow (mapping runs on
    // the healthy fabric) and handed to the closed-loop run instead.
    const noc::FaultConfig file_faults = flow.noc.faults;
    if (file_faults.rate_sampled() && file_faults.horizon_cycles == 0) {
      flow.noc.faults = noc::FaultConfig{};
    }

    // Progress goes to stderr so `--dump-config` (and `--csv -`-style uses)
    // leave stdout machine-readable.
    std::cerr << "building workload '" << app << "' (seed " << flow.seed
              << ")...\n";
    const snn::SnnGraph graph = apps::build_app(app, flow.seed);
    if (crossbar_size != 0 || !flow.arch.fits(graph.neuron_count())) {
      const std::uint32_t size =
          crossbar_size != 0
              ? crossbar_size
              : std::max<std::uint32_t>(16, (graph.neuron_count() + 3) / 4);
      // sized_for derives the crossbar count and the dragonfly and
      // fat-tree dimensions; the other fields the file sets carry over.
      const hw::Architecture file_arch = flow.arch;
      flow.arch = hw::Architecture::sized_for(graph.neuron_count(), size,
                                              file_arch.interconnect);
      flow.arch.tree_arity = file_arch.tree_arity;
      flow.arch.cycles_per_ms = file_arch.cycles_per_ms;
      flow.arch.chip_count = file_arch.chip_count;
    }
    if (chips != 0) flow.arch.chip_count = chips;

    // The co-simulation settings the file and flags select.  --dump-config
    // writes them beside the flow's, so a dumped file reproduces a --cosim
    // run; the closed-loop run below starts from the same struct.
    const apps::AppNetwork app_net = apps::build_app_network(app, flow.seed);
    cosim::CoSimConfig cc;
    cc.snn = app_net.sim;
    cc.noc = flow.noc;
    cc.cycles_per_timestep = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               static_cast<double>(flow.arch.cycles_per_ms) *
               app_net.sim.dt_ms));
    cc = core::cosim_from_config(file_config, cc);
    if (cosim_cycles != 0) cc.cycles_per_timestep = cosim_cycles;
    if (retry) cc.retry.enabled = true;

    if (dump_config) {
      util::Config effective;
      core::mapping_flow_to_config(flow, effective);
      core::cosim_to_config(cc, effective);
      std::cout << effective.dump();
      return 0;
    }

    std::cout << "workload: " << graph.neuron_count() << " neurons, "
              << graph.edge_count() << " synapses, " << graph.total_spikes()
              << " spikes over " << graph.duration_ms() << " ms\n";
    std::cout << "target:   " << flow.arch.describe() << "\n";
    std::cout << "mapper:   " << core::to_string(flow.partitioner) << "\n\n";

    const core::MappingReport report = core::run_mapping_flow(graph, flow);

    util::Table table({"metric", "value"});
    table.add_row({"AER packets (objective F)",
                   std::to_string(report.aer_packets)});
    table.add_row({"edge-cut spikes (Eq. 8 literal)",
                   std::to_string(report.global_spikes)});
    table.add_row({"local synaptic events",
                   std::to_string(report.local_events)});
    table.add_row({"global energy (uJ)",
                   util::format_double(report.global_energy_pj * 1e-6, 4)});
    table.add_row({"local energy (uJ)",
                   util::format_double(report.local_energy_pj * 1e-6, 4)});
    table.add_row({"total energy (uJ)",
                   util::format_double(report.total_energy_uj(), 4)});
    table.add_row({"avg latency (cycles)",
                   util::format_double(
                       report.noc_stats.latency_cycles.mean(), 2)});
    table.add_row({"max latency (cycles)",
                   std::to_string(report.noc_stats.max_latency_cycles)});
    table.add_row({"throughput (AER/ms)",
                   util::format_double(report.noc_stats.throughput_aer_per_ms(
                                           flow.arch.cycles_per_ms), 2)});
    table.add_row({"disorder (% of delivered)",
                   util::format_double(
                       report.snn_metrics.disorder_percent(), 4)});
    table.add_row({"avg ISI distortion (cycles)",
                   util::format_double(
                       report.snn_metrics.isi_distortion_avg_cycles, 3)});
    table.add_row({"max ISI distortion (cycles)",
                   util::format_double(
                       report.snn_metrics.isi_distortion_max_cycles, 1)});
    std::cout << table.to_ascii();
    if (cosim) {
      // Closed-loop co-simulation of the mapping just produced: the same
      // network, with cross-crossbar synapses carried by the cycle-level
      // NoC, compared against the same-seed ideal-interconnect run.

      // The closed-loop run carries the file's `faults:` section even when
      // the mapping flow ran fault-free (auto-horizon configs, see above).
      cc.noc.faults = file_faults;
      if (faults) {
        noc::FaultConfig& fc = cc.noc.faults;
        if (fault_seed_set || fc.seed == 0) fc.seed = fault_seed;
        const bool any_rate_flag =
            fault_link_rate >= 0.0 || fault_router_rate >= 0.0 ||
            fault_tile_rate >= 0.0 || fault_drop_prob >= 0.0;
        if (fault_link_rate >= 0.0) fc.link_fault_rate = fault_link_rate;
        if (fault_router_rate >= 0.0) fc.router_fault_rate = fault_router_rate;
        if (fault_tile_rate >= 0.0) fc.tile_fault_rate = fault_tile_rate;
        if (fault_drop_prob >= 0.0) fc.flit_drop_probability = fault_drop_prob;
        // Bare --faults with no rates anywhere: a canonical seeded scenario
        // (sparse permanent link faults plus rare flit corruption).
        if (!any_rate_flag && !fc.any()) {
          fc.link_fault_rate = 0.05;
          fc.transient_link_rate = 0.05;
          fc.flit_drop_probability = 0.001;
        }
      }
      if (!trace_path.empty() || !trace_csv_path.empty()) {
        cc.noc.trace.enabled = true;
      }
      if (monitor) cc.noc.monitor.enabled = true;
      if (remap_on_failure) {
        cc.failure_remap.enabled = true;
        cc.failure_remap.arch = flow.arch;
        cc.failure_remap.remap.seed = flow.seed;
      }

      // Plastic synapses cannot be remote-cut (their weights live on the
      // destination crossbar).  When the mapping splits a plastic
      // projection — e.g. HD's input->excitatory afferents under any
      // capacity-bound partition — co-simulate with STDP off (frozen
      // initial weights) instead of refusing the run.
      if (cc.snn.enable_stdp) {
        snn::Network probe = app_net.build();
        const auto& assignment = report.partition.assignment();
        for (const snn::Synapse& s : probe.synapses()) {
          if (s.plastic && assignment[s.pre] != assignment[s.post]) {
            std::cerr << "note: mapping cuts a plastic projection; "
                         "co-simulating with STDP disabled (frozen initial "
                         "weights)\n";
            cc.snn.enable_stdp = false;
            break;
          }
        }
      }

      noc::Topology cosim_topology =
          noc::Topology::for_architecture(flow.arch);
      if (flow.arch.interconnect == hw::InterconnectKind::kMesh) {
        cosim_topology.set_mesh_routing(flow.mesh_routing);
      }
      // Track layout for the trace exporters (one Perfetto process per
      // chip, one thread per router) — captured before the topology moves
      // into the co-simulator.
      obs::TraceTrackInfo tracks;
      tracks.router_chip.resize(cosim_topology.router_count());
      for (noc::RouterId r = 0; r < cosim_topology.router_count(); ++r) {
        tracks.router_chip[r] = cosim_topology.chip_of_router(r);
      }
      tracks.tile_router.resize(cosim_topology.tile_count());
      for (noc::TileId tl = 0; tl < cosim_topology.tile_count(); ++tl) {
        tracks.tile_router[tl] = cosim_topology.router_of_tile(tl);
      }
      std::cerr << "co-simulating (" << cc.cycles_per_timestep
                << " NoC cycles per timestep)...\n";
      snn::Network cosim_net = app_net.build();
      const cosim::CoSimResult cs =
          cosim::CoSimulator(cosim_net, report.partition, report.placement,
                             std::move(cosim_topology), cc)
              .run();
      // Same-seed run over an ideal interconnect: the divergence baseline.
      snn::Network ideal_net = app_net.build();
      const cosim::SpikeDivergence divergence = cosim::spike_divergence(
          snn::Simulator(ideal_net, cc.snn).run().spikes, cs.snn.spikes);

      util::Table fidelity({"co-sim metric", "value"});
      fidelity.add_row({"cycles per timestep",
                        std::to_string(cc.cycles_per_timestep)});
      fidelity.add_row({"AER packets offered",
                        std::to_string(cs.fidelity.packets_offered)});
      fidelity.add_row({"copies offered",
                        std::to_string(cs.fidelity.copies_offered)});
      fidelity.add_row({"copies accepted",
                        std::to_string(cs.fidelity.copies_accepted)});
      fidelity.add_row({"deadline misses (late windows)",
                        std::to_string(cs.fidelity.deadline_misses)});
      fidelity.add_row({"receive-queue drops",
                        std::to_string(cs.fidelity.receive_drops)});
      fidelity.add_row({"undelivered at end",
                        std::to_string(cs.fidelity.undelivered)});
      fidelity.add_row({"miss fraction",
                        util::format_double(cs.fidelity.miss_fraction(), 4)});
      fidelity.add_row({"mean transit (cycles)",
                        util::format_double(
                            cs.fidelity.transit_cycles.mean(), 2)});
      fidelity.add_row({"max transit (cycles)",
                        util::format_double(
                            cs.fidelity.transit_cycles.max(), 0)});
      fidelity.add_row({"spike-train divergence (%)",
                        util::format_double(divergence.fraction() * 100.0,
                                            4)});
      fidelity.add_row({"DVFS policy",
                        cosim::to_string(cc.dvfs.kind)});
      fidelity.add_row({"mean frequency (f/f0)",
                        util::format_double(
                            cs.fidelity.freq_scale.mean(), 3)});
      fidelity.add_row({"fabric energy (uJ)",
                        util::format_double(
                            cs.fidelity.fabric_energy_pj * 1e-6, 4)});
      fidelity.add_row({"energy-delay product (uJ x cycles)",
                        util::format_double(
                            cs.fidelity.energy_delay_product() * 1e-6, 3)});
      std::cout << '\n' << fidelity.to_ascii();

      if (cs.resilience.any() || cc.noc.faults.any()) {
        const cosim::ResilienceReport& rs = cs.resilience;
        util::Table resilience({"resilience metric", "value"});
        resilience.add_row({"link faults",
                            std::to_string(rs.noc_faults.link_faults)});
        resilience.add_row({"router faults",
                            std::to_string(rs.noc_faults.router_faults)});
        resilience.add_row({"tile faults",
                            std::to_string(rs.noc_faults.tile_faults)});
        resilience.add_row({"links restored",
                            std::to_string(rs.noc_faults.links_restored)});
        resilience.add_row({"fault-aware reroutes",
                            std::to_string(rs.noc_faults.reroutes)});
        resilience.add_row({"copies lost to faults",
                            std::to_string(rs.noc_faults.copies_lost())});
        resilience.add_row({"retransmit packets",
                            std::to_string(rs.retransmit_packets)});
        resilience.add_row({"retry recoveries",
                            std::to_string(rs.retry_recoveries)});
        resilience.add_row({"spikes lost (retry timeout)",
                            std::to_string(rs.spikes_lost_timeout)});
        resilience.add_row({"stale / duplicate arrivals",
                            std::to_string(rs.stale_arrivals) + " / " +
                                std::to_string(rs.duplicate_arrivals)});
        resilience.add_row({"retries pending at end",
                            std::to_string(rs.pending_at_end)});
        resilience.add_row({"retransmit energy (uJ)",
                            util::format_double(
                                rs.retransmit_energy_pj * 1e-6, 4)});
        resilience.add_row({"remap events",
                            std::to_string(rs.remap_events)});
        resilience.add_row({"neurons migrated / stranded",
                            std::to_string(rs.neurons_migrated) + " / " +
                                std::to_string(rs.neurons_stranded)});
        std::cout << '\n' << resilience.to_ascii();
      }

      if (monitor) {
        const obs::CongestionReport& cong = cs.fidelity.congestion;
        util::Table hot({"hot link", "ewma flits/cycle", "hot windows"});
        for (const obs::HotLink& h : cong.hot) {
          hot.add_row({std::to_string(h.from_router) + " -> " +
                           std::to_string(h.to_router),
                       util::format_double(h.ewma_occupancy, 3),
                       std::to_string(h.hot_streak)});
        }
        std::cout << '\n'
                  << "congestion: " << cong.links_tracked
                  << " links monitored over " << cong.windows_observed
                  << " windows, " << cong.hot_links
                  << " persistently hot (peak EWMA "
                  << util::format_double(cong.max_ewma_occupancy, 3)
                  << " flits/cycle)\n";
        if (!cong.hot.empty()) std::cout << hot.to_ascii();
      }

      if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out) throw std::runtime_error("cannot write " + trace_path);
        obs::write_chrome_trace(out, cs.trace, tracks);
        std::cout << "wrote " << trace_path << " (" << cs.trace.size()
                  << " of " << cs.trace_recorded
                  << " recorded events, digest "
                  << cs.trace_digest << ")\n";
      }
      if (!trace_csv_path.empty()) {
        std::ofstream out(trace_csv_path);
        if (!out) throw std::runtime_error("cannot write " + trace_csv_path);
        obs::write_trace_csv(out, cs.trace);
        std::cout << "wrote " << trace_csv_path << '\n';
      }
      if (!stats_json_path.empty()) {
        std::ofstream out(stats_json_path);
        if (!out) {
          throw std::runtime_error("cannot write " + stats_json_path);
        }
        out << "{\"noc\":";
        obs::write_json(out, cs.noc);
        out << ",\"fidelity\":";
        obs::write_json(out, cs.fidelity);
        out << ",\"resilience\":";
        obs::write_json(out, cs.resilience);
        out << ",\"trace\":{\"recorded\":" << cs.trace_recorded
            << ",\"retained\":" << cs.trace.size()
            << ",\"digest\":" << cs.trace_digest << "}}\n";
        std::cout << "wrote " << stats_json_path << '\n';
        stats_json_path.clear();  // the open-loop dump below is superseded
      }
    }
    if (!stats_json_path.empty()) {
      std::ofstream out(stats_json_path);
      if (!out) throw std::runtime_error("cannot write " + stats_json_path);
      out << "{\"noc\":";
      obs::write_json(out, report.noc_stats);
      out << "}\n";
      std::cout << "wrote " << stats_json_path << '\n';
    }
    if (analyze) {
      std::cout << '\n'
                << core::analyze_mapping(graph, report.partition).render();
    }
    if (!csv_path.empty()) {
      table.write_csv(csv_path);
      std::cout << "wrote " << csv_path << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
