// snnmap_perfbench: end-to-end and per-layer benchmark of the snnmap flow.
//
//   snnmap_perfbench --workload <paper-flow|noc-mesh|cosim-lockstep>
//                    [--seed N] [--seconds S] [--trace 0|1]
//
// One process runs one workload in a closed loop: set-up (SNN simulation,
// spike-graph extraction, architecture sizing; for cosim-lockstep also the
// PACMAN partition and CoSimulator construction) is repeated kSetupRepeats
// times and reported as a median, then whole passes of the timed phase run
// back to back until --seconds have elapsed.  A pass of a flow workload calls
// core::run_mapping_flow once per (application, partitioner) flow; a pass of
// cosim-lockstep is one CoSimulator::run.
//
// --trace 0 prints the end-to-end metrics: host wall and CPU time per pass
// (medians), peak RSS, and the simulated mapping quality, which repeats
// bit for bit.  --trace 1 alternates untraced passes with staged passes that
// split the flow into its public stage calls and time each from outside;
// it prints the per-layer metrics and checks every staged MappingReport
// field the metrics use against the untraced run_mapping_flow result.
//
// Every result line is preceded by a context line (compiler, build type,
// nproc, PSO threads, seeds); perfbench/compare.py refuses to compare
// results whose contexts differ.  The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is nonzero
// on any failed operation.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "apps/synthetic.hpp"
#include "core/cost.hpp"
#include "core/framework.hpp"
#include "core/neutrams.hpp"
#include "core/pacman.hpp"
#include "core/placement.hpp"
#include "core/pso.hpp"
#include "cosim/cosim.hpp"
#include "cosim/fidelity.hpp"
#include "hw/architecture.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "snn/graph.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace snnmap;

// --- pinned workload settings --------------------------------------------

constexpr std::uint32_t kSetupRepeats = 9;
constexpr std::uint32_t kPsoSwarm = 60;
constexpr std::uint32_t kPsoIterations = 60;
constexpr std::uint32_t kPsoThreads = 2;
constexpr std::uint32_t kCosimCyclesPerTimestep = 192;
// The co-simulated stimulus falls silent for the last kCosimQuietTailMs, so
// the network stops firing and the congested NoC drains before the run
// ends; without the tail, copies still in flight at the last step are
// reported undelivered and the run does not drain.
constexpr double kCosimDurationMs = 4000.0;
constexpr double kCosimQuietTailMs = 50.0;

// Each workload's application network (topology and weights) and its PSO
// seed are fixed by `network_seed`.  --seed selects the input spike streams
// (snn::SimulationConfig::seed) and defaults to the network seed, which
// reproduces the app exactly as apps::AppInfo::build(network_seed) makes it.
// A stimulus is used only when the network answers it with a spike total
// within kActivityTolerance of the default stimulus's; otherwise candidates
// drawn from util::Rng(--seed) are tried in turn.  The deep synthetic
// networks amplify the input's Poisson noise (noc-mesh's AER packets had a
// quartile spread of 13% over ten stimuli) and every layer's work scales
// with the spike total, so without this a new seed would change the
// workload's size rather than only its traffic.
constexpr double kActivityTolerance = 0.01;
constexpr std::uint32_t kMaxStimulusDraws = 512;

struct WorkloadSpec {
  const char* name;
  std::uint64_t network_seed;
};
constexpr WorkloadSpec kWorkloads[] = {
    {"paper-flow", 42},
    {"noc-mesh", 7},
    {"cosim-lockstep", 5},
};

// --- clocks ----------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Wall-clock spans by stage name, summed over the calls made.
class Spans {
 public:
  template <typename F>
  auto time(const std::string& name, F&& fn) {
    const double t0 = wall_now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(name, wall_now() - t0);
    } else {
      auto result = fn();
      add(name, wall_now() - t0);
      return result;
    }
  }
  void add(const std::string& name, double seconds) {
    seconds_[name] += seconds;
  }
  double get(const std::string& name) const {
    const auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  double total() const {
    double sum = 0.0;
    for (const auto& [name, s] : seconds_) sum += s;
    return sum;
  }

 private:
  std::map<std::string, double> seconds_;
};

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- set-up ------------------------------------------------------------------

/// One application: its live network builder and the extracted spike graph.
struct App {
  std::string name;
  apps::AppNetwork network;
  snn::SnnGraph graph;
};

struct SnnWork {
  std::uint64_t steps = 0;
  std::uint64_t spikes = 0;
  std::uint64_t synapses = 0;
};

/// An application of a workload, its stimulus already chosen.
struct AppSpec {
  std::string name;
  apps::AppNetwork network;
};

std::uint64_t spike_total(const apps::AppNetwork& app,
                          std::uint64_t stimulus) {
  snn::Network net = app.build();
  snn::SimulationConfig config = app.sim;
  config.seed = stimulus;
  snn::Simulator sim(net, config);
  return sim.run().total_spikes;
}

/// `app` under the first stimulus — `seed`, then draws from util::Rng(seed)
/// — whose spike total is within kActivityTolerance of the app's default
/// stimulus's.
AppSpec with_stimulus(std::string name, apps::AppNetwork app,
                      std::uint64_t seed) {
  const double reference = static_cast<double>(spike_total(app, app.sim.seed));
  util::Rng draws(seed);
  std::uint64_t candidate = seed;
  for (std::uint32_t k = 0; k < kMaxStimulusDraws; ++k) {
    const double total = static_cast<double>(spike_total(app, candidate));
    if (std::abs(total - reference) <= kActivityTolerance * reference) {
      app.sim.seed = candidate;
      return {std::move(name), std::move(app)};
    }
    candidate = draws.next();
  }
  throw std::runtime_error(name + ": no stimulus within the activity "
                           "tolerance of the default one");
}

/// Simulates the application's network and extracts its spike graph — what
/// apps::AppInfo::build does, split so each stage is timed.
App extract(const AppSpec& spec, Spans& spans, SnnWork& work) {
  const apps::AppNetwork& network = spec.network;
  snn::Network net = network.build();
  snn::SimulationResult result = spans.time("snn.sim_s", [&] {
    snn::Simulator sim(net, network.sim);
    return sim.run();
  });
  snn::SnnGraph graph = spans.time("snn.graph_s", [&] {
    return snn::SnnGraph::from_simulation(net, result);
  });
  work.steps += snn::simulation_step_count(network.sim);
  work.spikes += result.total_spikes;
  work.synapses += net.synapses().size();
  return App{spec.name, network, std::move(graph)};
}

apps::AppNetwork synthetic_network(std::uint32_t layers, std::uint32_t width,
                                   std::uint64_t seed, double duration_ms) {
  apps::SyntheticConfig config;
  config.layers = layers;
  config.neurons_per_layer = width;
  config.seed = seed;
  config.duration_ms = duration_ms;
  return {[config] { return apps::build_synthetic_network(config); },
          apps::synthetic_sim_config(config)};
}

/// `network` with its input group silenced from `quiet_from_ms` on.
apps::AppNetwork with_quiet_tail(apps::AppNetwork network,
                                 double quiet_from_ms) {
  network.build = [build = std::move(network.build), quiet_from_ms] {
    snn::Network net = build();
    for (std::uint32_t g = 0; g < net.group_count(); ++g) {
      const auto rate = net.group(g).rate_fn;
      if (!rate) continue;
      net.set_rate_function(g, [rate, quiet_from_ms](std::uint32_t i,
                                                     double t) {
        return t < quiet_from_ms ? rate(i, t) : 0.0;
      });
    }
    return net;
  };
  return network;
}

/// The Table II harness's CxQuad scaling: a tree of arity 4 whose crossbars
/// spread the workload over at least `min_crossbars` with ~25% slack.
hw::Architecture scaled_cxquad(const snn::SnnGraph& graph,
                               std::uint32_t min_crossbars) {
  const std::uint32_t n = graph.neuron_count();
  std::uint32_t size =
      (n * 5 + 4 * min_crossbars - 1) / (4 * min_crossbars);
  size = std::max<std::uint32_t>(size, 16);
  hw::Architecture arch =
      hw::Architecture::sized_for(n, size, hw::InterconnectKind::kTree);
  arch.tree_arity = 4;
  return arch;
}

core::PsoConfig pinned_pso() {
  core::PsoConfig pso;
  pso.swarm_size = kPsoSwarm;
  pso.iterations = kPsoIterations;
  pso.threads = kPsoThreads;
  return pso;
}

struct Flow {
  std::size_t app;  // index into FlowWorkload::apps
  core::MappingFlowConfig config;
};

struct FlowWorkload {
  std::vector<App> apps;
  std::vector<Flow> flows;
};

/// The applications a workload maps, with their stimuli chosen for `seed`.
std::vector<AppSpec> workload_apps(const WorkloadSpec& spec,
                                   std::uint64_t seed) {
  const std::string name = spec.name;
  if (name == "paper-flow") {
    std::vector<AppSpec> apps;
    for (const auto& info : apps::realistic_apps()) {
      apps.push_back(
          with_stimulus(info.name, info.network(spec.network_seed), seed));
    }
    return apps;
  }
  if (name == "noc-mesh") {
    return {with_stimulus(
        "synth_4x400", synthetic_network(4, 400, spec.network_seed, 500.0),
        seed)};
  }
  return {with_stimulus(
      "synth_3x300",
      with_quiet_tail(
          synthetic_network(3, 300, spec.network_seed, kCosimDurationMs),
          kCosimDurationMs - kCosimQuietTailMs),
      seed)};
}

FlowWorkload setup_paper_flow(const WorkloadSpec& spec,
                              const std::vector<AppSpec>& apps, Spans& spans,
                              SnnWork& work) {
  FlowWorkload w;
  for (const AppSpec& app : apps) w.apps.push_back(extract(app, spans, work));
  for (std::size_t a = 0; a < w.apps.size(); ++a) {
    core::MappingFlowConfig config;
    config.arch = scaled_cxquad(w.apps[a].graph, 8);
    config.arch.cycles_per_ms = 25;
    config.injection_jitter_cycles = 20;
    config.noc.buffer_depth = 4;
    config.pso = pinned_pso();
    config.seed = spec.network_seed;
    for (const auto kind :
         {core::PartitionerKind::kPacman, core::PartitionerKind::kPso}) {
      config.partitioner = kind;
      w.flows.push_back({a, config});
    }
  }
  return w;
}

FlowWorkload setup_noc_mesh(const WorkloadSpec& spec,
                            const std::vector<AppSpec>& apps, Spans& spans,
                            SnnWork& work) {
  FlowWorkload w;
  w.apps.push_back(extract(apps.at(0), spans, work));
  core::MappingFlowConfig config;
  config.arch = hw::Architecture::sized_for(w.apps[0].graph.neuron_count(), 64,
                                            hw::InterconnectKind::kMesh);
  config.pso = pinned_pso();
  config.seed = spec.network_seed;
  for (const auto kind :
       {core::PartitionerKind::kPacman, core::PartitionerKind::kNeutrams}) {
    config.partitioner = kind;
    w.flows.push_back({0, config});
  }
  return w;
}

struct CosimWorkload {
  App app;
  hw::Architecture arch;
  core::Partition partition;
  core::Placement placement;
  cosim::CoSimConfig config;
  snn::Network network;  // the live network the co-simulator steps
};

CosimWorkload setup_cosim(const std::vector<AppSpec>& apps, Spans& spans,
                          SnnWork& work) {
  CosimWorkload w{extract(apps.at(0), spans, work), {}, {}, {}, {}, {}};
  w.arch = hw::Architecture::sized_for(w.app.graph.neuron_count(), 64,
                                       hw::InterconnectKind::kTree);
  w.partition = core::pacman_partition(w.app.graph, w.arch);
  w.placement = core::identity_placement(
      w.arch.crossbar_count, noc::Topology::for_architecture(w.arch));
  w.config.snn = w.app.network.sim;
  w.config.cycles_per_timestep = kCosimCyclesPerTimestep;
  return w;
}

// --- simulated (deterministic) results ---------------------------------------

/// The simulated end-to-end metrics of one pass; repeat bit for bit.
struct Quality {
  double aer_packets = 0.0;
  double global_energy_uj = 0.0;
  double total_energy_uj = 0.0;
  double mean_latency_cycles = 0.0;
  // Per-layer only: a maximum moves too much with the stimulus to bound.
  double flow_max_latency_cycles = 0.0;   // flows only
  double cosim_max_latency_cycles = 0.0;  // cosim only
  double isi_distortion_cycles = 0.0;  // flows only
  double disorder_pct = 0.0;           // flows only
  double spike_divergence_pct = 0.0;   // cosim only
  double late_copies_pct = 0.0;        // cosim only

  bool operator==(const Quality&) const = default;
};

/// Destination copies a traffic trace offers: a multicast flit forks into
/// one copy per destination tile, so this, not flits_injected, is what a
/// fault-free run must deliver.
std::uint64_t offered_copies(
    const std::vector<noc::SpikePacketEvent>& traffic) {
  std::uint64_t copies = 0;
  for (const auto& ev : traffic) copies += ev.dest_tiles.size();
  return copies;
}

/// Per-operation correctness of one flow; returns a reason or "".
std::string check_flow(const core::MappingReport& r, std::uint64_t copies) {
  const noc::NocStats& s = r.noc_stats;
  if (!s.drained) return "NoC did not drain";
  if (s.fault.any()) return "fault accounting in a fault-free run";
  if (s.copies_delivered != copies) return "copies_delivered != offered copies";
  if (s.packets_injected != r.packets_offered) {
    return "packets_injected != packets_offered";
  }
  return "";
}

/// check_flow for a run_mapping_flow report, whose traffic is rebuilt from
/// the report's own partition and placement.
std::string check_flow(const core::MappingReport& r, const snn::SnnGraph& graph,
                       const core::MappingFlowConfig& config) {
  return check_flow(
      r, offered_copies(core::build_traffic(graph, r.partition, r.placement,
                                            config.arch.cycles_per_ms,
                                            config.injection_jitter_cycles)));
}

Quality flow_quality(const FlowWorkload& w,
                     const std::vector<core::MappingReport>& reports) {
  Quality q;
  util::Accumulator latency;
  double isi_weighted = 0.0;
  double isi_pairs = 0.0;
  double disordered = 0.0;
  double total_spikes = 0.0;
  for (std::size_t f = 0; f < reports.size(); ++f) {
    const core::MappingReport& r = reports[f];
    q.aer_packets += static_cast<double>(r.aer_packets);
    q.global_energy_uj += r.global_energy_pj * 1e-6;
    q.total_energy_uj += r.total_energy_uj();
    latency.merge(r.noc_stats.latency_cycles);
    q.flow_max_latency_cycles =
        std::max(q.flow_max_latency_cycles,
                 static_cast<double>(r.noc_stats.max_latency_cycles));
    isi_weighted += r.snn_metrics.isi_distortion_avg_cycles *
                    static_cast<double>(r.snn_metrics.isi_pairs);
    isi_pairs += static_cast<double>(r.snn_metrics.isi_pairs);
    disordered += static_cast<double>(r.snn_metrics.disordered_spikes);
    // Table II's denominator: every SNN spike of the application.
    total_spikes +=
        static_cast<double>(w.apps[w.flows[f].app].graph.total_spikes());
  }
  q.mean_latency_cycles = latency.mean();
  q.isi_distortion_cycles = isi_pairs > 0 ? isi_weighted / isi_pairs : 0.0;
  q.disorder_pct = total_spikes > 0 ? 100.0 * disordered / total_spikes : 0.0;
  return q;
}

/// PSO must never map an application to more AER packets than PACMAN.
std::vector<std::string> check_pso_vs_pacman(
    const FlowWorkload& w, const std::vector<core::MappingReport>& reports) {
  std::vector<std::string> problems;
  for (std::size_t f = 0; f < reports.size(); ++f) {
    if (w.flows[f].config.partitioner != core::PartitionerKind::kPso) continue;
    for (std::size_t g = 0; g < reports.size(); ++g) {
      if (w.flows[g].app == w.flows[f].app &&
          w.flows[g].config.partitioner == core::PartitionerKind::kPacman &&
          reports[f].aer_packets > reports[g].aer_packets) {
        problems.push_back(w.apps[w.flows[f].app].name +
                           ": PSO aer_packets above PACMAN's");
      }
    }
  }
  return problems;
}

Quality cosim_quality(const CosimWorkload& w, const cosim::CoSimResult& r) {
  const cosim::FidelityReport& fid = r.fidelity;
  // Local energy is priced on the closed-loop spike trains.
  const snn::SnnGraph closed = snn::SnnGraph::from_simulation(w.network, r.snn);
  const double local_pj = core::CostModel(closed).local_energy_pj(
      w.partition, w.config.noc.energy);
  Quality q;
  q.aer_packets = static_cast<double>(fid.packets_offered);
  q.global_energy_uj = r.noc.global_energy_pj * 1e-6;
  q.total_energy_uj = (r.noc.global_energy_pj + local_pj) * 1e-6;
  q.mean_latency_cycles = r.noc.latency_cycles.mean();
  q.cosim_max_latency_cycles = static_cast<double>(r.noc.max_latency_cycles);
  q.spike_divergence_pct =
      100.0 *
      cosim::spike_divergence(w.app.graph.spike_trains(), r.snn.spikes)
          .fraction();
  q.late_copies_pct = fid.copies_accepted
                          ? 100.0 * static_cast<double>(fid.deadline_misses) /
                                static_cast<double>(fid.copies_accepted)
                          : 0.0;
  return q;
}

// --- staged flow (traced) ----------------------------------------------------

struct StageWork {
  std::uint64_t pso_evals = 0;
  std::uint64_t pso_iterations = 0;
  std::uint64_t traffic_packets = 0;
  std::uint64_t flits_injected = 0;
  std::uint64_t copies_delivered = 0;
  std::uint64_t link_hops = 0;
  std::uint64_t router_traversals = 0;
  std::uint64_t busy_cycles = 0;
  std::uint64_t duration_cycles = 0;
};

/// run_mapping_flow split into its public stage calls, each timed from
/// outside.  Mirrors core::run_mapping_flow for identity placement; `copies`
/// receives the destination copies the built traffic offers.
core::MappingReport staged_flow(const snn::SnnGraph& graph,
                                const core::MappingFlowConfig& config,
                                Spans& spans, StageWork& work,
                                std::uint64_t& copies) {
  if (config.comm_aware_placement) {
    throw std::logic_error("staged_flow: only identity placement is staged");
  }
  core::MappingReport report;
  switch (config.partitioner) {
    case core::PartitionerKind::kPso: {
      core::PsoConfig pso = config.pso;
      pso.seed = config.seed;
      core::PsoResult result = spans.time("core.pso_s", [&] {
        return core::PsoPartitioner(graph, config.arch, pso).optimize();
      });
      work.pso_evals += result.fitness_evaluations;
      work.pso_iterations += result.iterations_run;
      report.partition = std::move(result.best);
      break;
    }
    case core::PartitionerKind::kPacman:
      report.partition = spans.time("core.pacman_s", [&] {
        return core::pacman_partition(graph, config.arch);
      });
      break;
    case core::PartitionerKind::kNeutrams:
      report.partition = spans.time("core.neutrams_s", [&] {
        return core::neutrams_partition(graph, config.arch);
      });
      break;
    default:
      throw std::logic_error("staged_flow: partitioner not staged");
  }
  report.partition.validate(config.arch);

  noc::Topology topology = noc::Topology::for_architecture(config.arch);
  if (config.arch.interconnect == hw::InterconnectKind::kMesh) {
    topology.set_mesh_routing(config.mesh_routing);
  }
  core::CostModel cost = spans.time("core.cost_s", [&] {
    return core::CostModel(graph);
  });
  report.placement = spans.time("core.place_s", [&] {
    return core::identity_placement(config.arch.crossbar_count, topology);
  });
  spans.time("core.cost_s", [&] {
    report.global_spikes = cost.global_spike_count(report.partition);
    report.aer_packets = cost.multicast_packet_count(report.partition);
    report.local_events = cost.local_event_count(report.partition);
    report.local_energy_pj =
        cost.local_energy_pj(report.partition, config.energy());
    report.analytic_global_energy_pj = cost.analytic_global_energy_pj(
        report.partition, topology, report.placement, config.energy(),
        config.noc.multicast);
  });
  auto traffic = spans.time("core.traffic_s", [&] {
    return core::build_traffic(graph, report.partition, report.placement,
                               config.arch.cycles_per_ms,
                               config.injection_jitter_cycles);
  });
  report.packets_offered = traffic.size();
  copies = offered_copies(traffic);
  work.traffic_packets += traffic.size();

  noc::NocRunResult run = spans.time("noc.run_s", [&] {
    noc::NocSimulator sim(std::move(topology), config.noc);
    return sim.run(std::move(traffic));
  });
  report.noc_stats = run.stats;
  report.snn_metrics = run.snn;
  report.global_energy_pj = run.stats.global_energy_pj;
  work.flits_injected += run.stats.flits_injected;
  work.copies_delivered += run.stats.copies_delivered;
  work.link_hops += run.stats.link_hops;
  work.router_traversals += run.stats.router_traversals;
  work.duration_cycles += run.stats.duration_cycles;
  for (const auto& window : run.window_energy.windows) {
    work.busy_cycles += window.busy_cycles;
  }
  return report;
}

/// Exact equality of every MappingReport field the metrics use.
bool same_report(const core::MappingReport& a, const core::MappingReport& b) {
  const noc::NocStats& x = a.noc_stats;
  const noc::NocStats& y = b.noc_stats;
  return a.partition == b.partition && a.placement == b.placement &&
         a.global_spikes == b.global_spikes &&
         a.aer_packets == b.aer_packets && a.local_events == b.local_events &&
         a.packets_offered == b.packets_offered &&
         a.global_energy_pj == b.global_energy_pj &&
         a.local_energy_pj == b.local_energy_pj &&
         a.analytic_global_energy_pj == b.analytic_global_energy_pj &&
         x.packets_injected == y.packets_injected &&
         x.flits_injected == y.flits_injected &&
         x.copies_delivered == y.copies_delivered &&
         x.link_hops == y.link_hops &&
         x.router_traversals == y.router_traversals &&
         x.latency_cycles.count() == y.latency_cycles.count() &&
         x.latency_cycles.mean() == y.latency_cycles.mean() &&
         x.max_latency_cycles == y.max_latency_cycles &&
         x.duration_cycles == y.duration_cycles && x.drained == y.drained &&
         a.snn_metrics.isi_distortion_avg_cycles ==
             b.snn_metrics.isi_distortion_avg_cycles &&
         a.snn_metrics.isi_pairs == b.snn_metrics.isi_pairs &&
         a.snn_metrics.disordered_spikes == b.snn_metrics.disordered_spikes;
}

// --- the run -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 30.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (value.empty() || value[0] == '-') {
        throw std::invalid_argument("--seed must be a non-negative integer");
      }
      args.seed = std::stoull(value, &used);
      args.seed_given = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value, &used);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
      used = value.size();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (flag != "--workload" && used != value.size()) {
      throw std::invalid_argument("bad value for " + flag + ": " + value);
    }
  }
  return args;
}

/// Outcome of the run: operation accounting plus the metrics to print.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void fail(const std::string& why) {
    ++failed;
    std::cerr << "perfbench: FAILED: " << why << '\n';
  }
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Pass timing: wall and CPU seconds of each pass.
struct PassTimes {
  std::vector<double> wall;
  std::vector<double> cpu;
};

template <typename F>
void timed_pass(PassTimes& times, F&& fn) {
  const double w0 = wall_now();
  const double c0 = cpu_now();
  fn();
  times.cpu.push_back(cpu_now() - c0);
  times.wall.push_back(wall_now() - w0);
  std::cerr << "perfbench: pass " << times.wall.size() << ": wall "
            << times.wall.back() << " s, cpu " << times.cpu.back() << " s\n";
}

void put_end_to_end(Outcome& out, double setup_s, const PassTimes& untraced,
                    const Quality& q) {
  out.put("setup_s", setup_s, "s");
  out.put("e2e_s", median(untraced.wall), "s");
  out.put("cpu_s", median(untraced.cpu), "s");
  out.put("peak_rss_mb", peak_rss_mib(), "MiB");
  out.put("aer_packets", q.aer_packets, "count");
  out.put("global_energy_uj", q.global_energy_uj, "uJ");
  out.put("total_energy_uj", q.total_energy_uj, "uJ");
  out.put("mean_latency_cycles", q.mean_latency_cycles, "cycles");
}

/// Per-layer metrics shared by every workload; `stages` holds the stage
/// spans of the traced passes, summed over `traced_passes` passes.
void put_layers(Outcome& out, const Spans& setup, const SnnWork& snn,
                const Spans& stages, double traced_passes,
                const StageWork& work, const PassTimes& untraced,
                const PassTimes& traced, const Quality& q) {
  const double p = traced_passes > 0 ? traced_passes : 1.0;
  const auto per_pass = [&](const char* name) { return stages.get(name) / p; };
  const double e2e = median(untraced.wall);
  const double traced_mean = mean(traced.wall);
  const double untraced_mean = mean(untraced.wall);

  out.put("snn.sim_s", setup.get("snn.sim_s"), "s");
  out.put("snn.graph_s", setup.get("snn.graph_s"), "s");
  out.put("snn.steps", static_cast<double>(snn.steps), "count");
  out.put("snn.spikes", static_cast<double>(snn.spikes), "count");
  out.put("snn.synapses", static_cast<double>(snn.synapses), "count");
  out.put("snn.us_per_step",
          snn.steps ? 1e6 * setup.get("snn.sim_s") /
                          static_cast<double>(snn.steps)
                    : 0.0,
          "us");

  const double pso_s = per_pass("core.pso_s");
  const double evals = static_cast<double>(work.pso_evals) / p;
  out.put("core.pso_s", pso_s, "s");
  out.put("core.pso.fitness_evals", evals, "count");
  out.put("core.pso.iterations", static_cast<double>(work.pso_iterations) / p,
          "count");
  out.put("core.pso.us_per_eval", evals > 0 ? 1e6 * pso_s / evals : 0.0, "us");
  out.put("core.pacman_s", per_pass("core.pacman_s"), "s");
  out.put("core.neutrams_s", per_pass("core.neutrams_s"), "s");
  out.put("core.cost_s", per_pass("core.cost_s"), "s");
  out.put("core.place_s", per_pass("core.place_s"), "s");
  out.put("core.traffic_s", per_pass("core.traffic_s"), "s");
  out.put("core.traffic.packets",
          static_cast<double>(work.traffic_packets) / p, "count");

  const double noc_s = per_pass("noc.run_s");
  const double traversals = static_cast<double>(work.router_traversals) / p;
  const double duration = static_cast<double>(work.duration_cycles) / p;
  const double busy = static_cast<double>(work.busy_cycles) / p;
  out.put("noc.run_s", noc_s, "s");
  out.put("noc.flits_injected", static_cast<double>(work.flits_injected) / p,
          "count");
  out.put("noc.copies_delivered",
          static_cast<double>(work.copies_delivered) / p, "count");
  out.put("noc.link_hops", static_cast<double>(work.link_hops) / p, "count");
  out.put("noc.router_traversals", traversals, "count");
  out.put("noc.busy_cycles", busy, "cycles");
  out.put("noc.duration_cycles", duration, "cycles");
  out.put("noc.busy_frac", duration > 0 ? busy / duration : 0.0, "ratio");
  out.put("noc.ns_per_router_traversal",
          traversals > 0 ? 1e9 * noc_s / traversals : 0.0, "ns");
  out.put("noc.max_latency_cycles", q.flow_max_latency_cycles, "cycles");
  out.put("noc.isi_distortion_cycles", q.isi_distortion_cycles, "cycles");
  out.put("noc.disorder_pct", q.disorder_pct, "%");

  out.put("util.pool_cpu_ratio", e2e > 0 ? median(untraced.cpu) / e2e : 0.0,
          "ratio");
  out.put("flow.traced_e2e_s", traced_mean, "s");
  out.put("flow.other_s", traced_mean - stages.total() / p, "s");
  out.put("trace.overhead_pct",
          untraced_mean > 0 ? 100.0 * (traced_mean / untraced_mean - 1.0)
                            : 0.0,
          "%");
}

/// The cosim.* per-layer block; zeros on the flow workloads, which make no
/// co-simulation call.
struct CosimLayer {
  double ctor_s = 0.0;
  double run_s = 0.0;
  double ref_snn_s = 0.0;
  double ref_noc_s = 0.0;
  double steps = 0.0;
  double packets_offered = 0.0;
  double copies_arrived = 0.0;
  double deadline_misses = 0.0;
  double undelivered = 0.0;
};

void put_cosim_layer(Outcome& out, const CosimLayer& c, const Quality& q) {
  out.put("cosim.ctor_s", c.ctor_s, "s");
  out.put("cosim.run_s", c.run_s, "s");
  out.put("cosim.steps", c.steps, "count");
  out.put("cosim.packets_offered", c.packets_offered, "count");
  out.put("cosim.copies_arrived", c.copies_arrived, "count");
  out.put("cosim.deadline_misses", c.deadline_misses, "count");
  out.put("cosim.undelivered", c.undelivered, "count");
  out.put("cosim.us_per_step", c.steps > 0 ? 1e6 * c.run_s / c.steps : 0.0,
          "us");
  out.put("cosim.ref_snn_s", c.ref_snn_s, "s");
  out.put("cosim.ref_noc_s", c.ref_noc_s, "s");
  // Derived estimate, not a measured span: what the lockstep loop costs
  // beyond an open-loop SNN run plus a one-shot NoC run of the same traffic.
  out.put("cosim.handoff_s",
          c.run_s > 0 ? c.run_s - c.ref_snn_s - c.ref_noc_s : 0.0, "s");
  out.put("cosim.max_latency_cycles", q.cosim_max_latency_cycles, "cycles");
  out.put("cosim.spike_divergence_pct", q.spike_divergence_pct, "%");
  out.put("cosim.late_copies_pct", q.late_copies_pct, "%");
}

Outcome run_flow_workload(const Args& args, const WorkloadSpec& spec,
                          const std::vector<AppSpec>& apps) {
  Outcome out;
  const bool paper = args.workload == "paper-flow";
  std::vector<double> setup_times;
  Spans setup_spans;
  SnnWork snn_work;
  FlowWorkload w;
  for (std::uint32_t r = 0; r < kSetupRepeats; ++r) {
    Spans spans;
    SnnWork work;
    const double t0 = wall_now();
    w = paper ? setup_paper_flow(spec, apps, spans, work)
              : setup_noc_mesh(spec, apps, spans, work);
    setup_times.push_back(wall_now() - t0);
    std::cerr << "perfbench: set-up " << r + 1 << ": " << setup_times.back()
              << " s\n";
    setup_spans = spans;  // the last, warm repeat
    snn_work = work;
  }

  std::vector<core::MappingReport> reference;  // first untraced pass
  Quality quality;
  PassTimes untraced;
  PassTimes traced;
  Spans stages;
  StageWork stage_work;
  double traced_passes = 0.0;
  std::uint64_t parity_mismatches = 0;

  const auto untraced_pass = [&] {
    std::vector<core::MappingReport> reports(w.flows.size());
    std::vector<bool> ok(w.flows.size(), false);
    timed_pass(untraced, [&] {
      for (std::size_t f = 0; f < w.flows.size(); ++f) {
        ++out.attempted;
        try {
          reports[f] = core::run_mapping_flow(w.apps[w.flows[f].app].graph,
                                              w.flows[f].config);
          ok[f] = true;
        } catch (const std::exception& e) {
          out.fail(std::string("run_mapping_flow threw: ") + e.what());
        }
      }
    });
    for (std::size_t f = 0; f < w.flows.size(); ++f) {
      if (!ok[f]) continue;
      const std::string why = check_flow(
          reports[f], w.apps[w.flows[f].app].graph, w.flows[f].config);
      if (!why.empty()) out.fail(w.apps[w.flows[f].app].name + ": " + why);
    }
    for (const auto& why : check_pso_vs_pacman(w, reports)) out.fail(why);
    const Quality q = flow_quality(w, reports);
    if (reference.empty()) {
      reference = std::move(reports);
      quality = q;
    } else if (!(q == quality)) {
      out.fail("simulated metrics differ between passes");
    }
  };

  const auto traced_pass = [&] {
    timed_pass(traced, [&] {
      for (std::size_t f = 0; f < w.flows.size(); ++f) {
        ++out.attempted;
        try {
          std::uint64_t copies = 0;
          const core::MappingReport staged =
              staged_flow(w.apps[w.flows[f].app].graph, w.flows[f].config,
                          stages, stage_work, copies);
          const std::string why = check_flow(staged, copies);
          if (!why.empty()) out.fail(w.apps[w.flows[f].app].name + ": " + why);
          if (!same_report(staged, reference[f])) {
            ++parity_mismatches;
            out.fail(w.apps[w.flows[f].app].name +
                     ": staged flow differs from run_mapping_flow");
          }
        } catch (const std::exception& e) {
          out.fail(std::string("staged flow threw: ") + e.what());
        }
      }
    });
    traced_passes += 1.0;
  };

  const double start = wall_now();
  do {
    untraced_pass();
    if (args.trace) traced_pass();
  } while (wall_now() - start < args.seconds);

  if (!args.trace) {
    put_end_to_end(out, median(setup_times), untraced, quality);
    return out;
  }
  put_layers(out, setup_spans, snn_work, stages, traced_passes, stage_work,
             untraced, traced, quality);
  out.put("flow.parity_mismatches", static_cast<double>(parity_mismatches),
          "count");
  put_cosim_layer(out, CosimLayer{}, quality);
  return out;
}

Outcome run_cosim_workload(const Args& args,
                           const std::vector<AppSpec>& apps) {
  Outcome out;
  std::vector<double> setup_times;
  Spans setup_spans;
  SnnWork snn_work;
  CosimWorkload w;
  const auto construct = [&](Spans& spans) {
    w.network = w.app.network.build();
    return spans.time("cosim.ctor_s", [&] {
      return std::make_unique<cosim::CoSimulator>(
          w.network, w.partition, w.placement,
          noc::Topology::for_architecture(w.arch), w.config);
    });
  };
  std::unique_ptr<cosim::CoSimulator> sim;
  for (std::uint32_t r = 0; r < kSetupRepeats; ++r) {
    Spans spans;
    SnnWork work;
    sim.reset();
    const double t0 = wall_now();
    w = setup_cosim(apps, spans, work);
    sim = construct(spans);
    setup_times.push_back(wall_now() - t0);
    std::cerr << "perfbench: set-up " << r + 1 << ": " << setup_times.back()
              << " s\n";
    setup_spans = spans;  // the last, warm repeat
    snn_work = work;
  }

  Quality quality;
  bool have_quality = false;
  PassTimes passes;
  CosimLayer layer;
  const double start = wall_now();
  do {
    if (!sim) {
      Spans discard;
      sim = construct(discard);
    }
    ++out.attempted;
    cosim::CoSimResult result;
    bool ok = false;
    timed_pass(passes, [&] {
      try {
        result = sim->run();
        ok = true;
      } catch (const std::exception& e) {
        out.fail(std::string("CoSimulator::run threw: ") + e.what());
      }
    });
    sim.reset();
    if (!ok) continue;
    const cosim::FidelityReport& fid = result.fidelity;
    if (!result.noc.drained) out.fail("co-simulated NoC did not drain");
    if (fid.copies_offered != fid.copies_arrived + fid.undelivered) {
      out.fail("copies_offered != copies_arrived + undelivered");
    }
    if (result.resilience.any()) {
      out.fail("fault accounting in a fault-free run");
    }
    const Quality q = cosim_quality(w, result);
    if (have_quality) {
      if (!(q == quality)) out.fail("simulated metrics differ between passes");
      continue;
    }
    quality = q;
    have_quality = true;
    layer.steps = static_cast<double>(fid.steps);
    layer.packets_offered = static_cast<double>(fid.packets_offered);
    layer.copies_arrived = static_cast<double>(fid.copies_arrived);
    layer.deadline_misses = static_cast<double>(fid.deadline_misses);
    layer.undelivered = static_cast<double>(fid.undelivered);
  } while (wall_now() - start < args.seconds);

  if (!args.trace) {
    put_end_to_end(out, median(setup_times), passes, quality);
    return out;
  }

  // Open-loop references on the same mapping: the SNN alone, and one bulk
  // NoC run of the traffic the open-loop trains would offer.
  Spans refs;
  {
    snn::Network net = w.app.network.build();
    refs.time("ref_snn", [&] {
      snn::Simulator ref(net, w.config.snn);
      return ref.run().total_spikes;
    });
  }
  auto traffic = core::build_traffic(w.app.graph, w.partition, w.placement,
                                     w.config.cycles_per_timestep,
                                     w.config.injection_jitter_cycles);
  refs.time("ref_noc", [&] {
    noc::NocSimulator ref(noc::Topology::for_architecture(w.arch),
                          w.config.noc);
    return ref.run(std::move(traffic)).stats.copies_delivered;
  });

  layer.ctor_s = setup_spans.get("cosim.ctor_s");
  layer.ref_snn_s = refs.get("ref_snn");
  layer.ref_noc_s = refs.get("ref_noc");

  // The cosim timed phase is the one CoSimulator::run span, so the traced
  // pass is the untraced one and flow.other_s is zero by construction.
  Spans stages;
  for (const double s : passes.wall) stages.add("cosim.run_s", s);
  const double n = static_cast<double>(passes.wall.size());
  layer.run_s = stages.get("cosim.run_s") / n;
  StageWork none;
  put_layers(out, setup_spans, snn_work, stages, n, none, passes, passes,
             quality);
  out.put("flow.parity_mismatches", 0.0, "count");
  put_cosim_layer(out, layer, quality);
  return out;
}

std::string context_json(const Args& args, const WorkloadSpec& spec,
                         const std::vector<AppSpec>& apps, long nproc) {
  std::ostringstream os;
  os << "{\"context\": {\"compiler\": \"" << PERFBENCH_COMPILER
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"nproc\": " << nproc << ", \"pso_threads\": " << kPsoThreads
     << ", \"workload\": \"" << args.workload
     << "\", \"network_seed\": " << spec.network_seed
     << ", \"seed\": " << args.seed << ", \"stimuli\": [";
  for (std::size_t i = 0; i < apps.size(); ++i) {
    os << (i ? ", " : "") << apps[i].network.sim.seed;
  }
  os << "]"
     << ", \"seconds\": " << json_number(args.seconds)
     << ", \"setup_repeats\": " << kSetupRepeats << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& s : kWorkloads) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload
              << "' (paper-flow, noc-mesh, cosim-lockstep)\n";
    return 2;
  }
  if (!args.seed_given) args.seed = spec->network_seed;

#ifndef NDEBUG
  std::cerr << "perfbench: refusing to measure a build with assertions on\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: build type is " << PERFBENCH_BUILD_TYPE
              << ", not Release\n";
    return 2;
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc < static_cast<long>(kPsoThreads)) {
    std::cerr << "perfbench: " << kPsoThreads
              << " PSO threads pinned but nproc is " << nproc << '\n';
    return 2;
  }

  std::vector<AppSpec> apps;
  Outcome out;
  try {
    apps = workload_apps(*spec, args.seed);
    out = args.workload == "cosim-lockstep"
              ? run_cosim_workload(args, apps)
              : run_flow_workload(args, *spec, apps);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: set-up failed: " << e.what() << '\n';
    return 1;
  }

  std::cout << context_json(args, *spec, apps, nproc) << '\n';
  for (const Metric& m : out.metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << ' '
              << m.unit << '\n';
  }
  std::cout << "  ops = " << out.attempted << ", failed = " << out.failed
            << '\n';
  std::ostringstream json;
  json << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return out.failed == 0 ? 0 : 1;
}
