#include "core/config_io.hpp"

#include <stdexcept>

namespace snnmap::core {

PartitionerKind partitioner_from_string(const std::string& name) {
  if (name == "pso") return PartitionerKind::kPso;
  if (name == "pacman") return PartitionerKind::kPacman;
  if (name == "neutrams") return PartitionerKind::kNeutrams;
  if (name == "annealing") return PartitionerKind::kAnnealing;
  if (name == "genetic") return PartitionerKind::kGenetic;
  throw std::invalid_argument("unknown partitioner: '" + name + "'");
}

Objective objective_from_string(const std::string& name) {
  if (name == "aer-packets") return Objective::kAerPackets;
  if (name == "cut-spikes") return Objective::kCutSpikes;
  throw std::invalid_argument("unknown objective: '" + name + "'");
}

namespace {

/// Throws std::invalid_argument naming the first key of `config` that
/// neither mapping_flow_to_config nor cosim_to_config writes.  One file
/// feeds both loaders, so each accepts the other's keys; a misspelled or
/// retired key must not load as if it were absent.
void reject_unknown_keys(const util::Config& config) {
  util::Config known;
  mapping_flow_to_config(MappingFlowConfig{}, known);
  cosim_to_config(cosim::CoSimConfig{}, known);
  for (const std::string& key : config.keys()) {
    if (!known.contains(key)) {
      throw std::invalid_argument("config: unknown key '" + key + "'");
    }
  }
}

}  // namespace

MappingFlowConfig mapping_flow_from_config(const util::Config& config) {
  reject_unknown_keys(config);
  MappingFlowConfig flow;

  // -- architecture
  flow.arch.crossbar_count = config.uint_or(
      "arch.crossbars", flow.arch.crossbar_count);
  flow.arch.neurons_per_crossbar = config.uint_or(
      "arch.neurons_per_crossbar", flow.arch.neurons_per_crossbar);
  if (const auto kind = config.get_string("arch.interconnect")) {
    flow.arch.interconnect = hw::interconnect_from_string(*kind);
  }
  flow.arch.tree_arity = config.uint_or(
      "arch.tree_arity", flow.arch.tree_arity);
  flow.arch.dragonfly_arity = config.uint_or(
      "arch.dragonfly_arity", flow.arch.dragonfly_arity);
  flow.arch.dragonfly_groups = config.uint_or(
      "arch.dragonfly_groups", flow.arch.dragonfly_groups);
  flow.arch.dragonfly_global = config.uint_or(
      "arch.dragonfly_global", flow.arch.dragonfly_global);
  flow.arch.fattree_k = config.uint_or("arch.fattree_k", flow.arch.fattree_k);
  flow.arch.chip_count = config.uint_or("arch.chips", flow.arch.chip_count);
  flow.arch.cycles_per_ms = config.uint_or(
      "arch.cycles_per_ms", flow.arch.cycles_per_ms);

  // -- NoC
  flow.noc.buffer_depth = config.uint_or(
      "noc.buffer_depth", flow.noc.buffer_depth);
  flow.noc.multicast = config.bool_or("noc.multicast", flow.noc.multicast);
  if (const auto selection = config.get_string("noc.selection")) {
    if (*selection == "first-candidate") {
      flow.noc.selection = noc::SelectionStrategy::kFirstCandidate;
    } else if (*selection == "buffer-level") {
      flow.noc.selection = noc::SelectionStrategy::kBufferLevel;
    } else {
      throw std::invalid_argument("unknown selection strategy: '" +
                                  *selection + "'");
    }
  }
  if (const auto routing = config.get_string("noc.mesh_routing")) {
    flow.mesh_routing = noc::mesh_routing_from_string(*routing);
  }
  flow.noc.max_cycles = config.uint_or("noc.max_cycles", flow.noc.max_cycles);
  flow.noc.offchip_link_latency = config.uint_or(
      "noc.offchip_link_latency", flow.noc.offchip_link_latency);

  // -- fault injection (all-zero defaults = inert model)
  noc::FaultConfig& faults = flow.noc.faults;
  faults.seed = config.uint_or("faults.seed", faults.seed);
  faults.link_fault_rate =
      config.double_or("faults.link_fault_rate", faults.link_fault_rate);
  faults.router_fault_rate =
      config.double_or("faults.router_fault_rate", faults.router_fault_rate);
  faults.tile_fault_rate =
      config.double_or("faults.tile_fault_rate", faults.tile_fault_rate);
  faults.transient_link_rate = config.double_or("faults.transient_link_rate",
                                                faults.transient_link_rate);
  faults.transient_duration_cycles = config.uint_or(
      "faults.transient_duration_cycles", faults.transient_duration_cycles);
  faults.flit_drop_probability = config.double_or(
      "faults.flit_drop_probability", faults.flit_drop_probability);
  faults.horizon_cycles = config.uint_or(
      "faults.horizon_cycles", faults.horizon_cycles);

  // -- observability (tracing + congestion monitor; defaults are inert)
  obs::TraceConfig& trace = flow.noc.trace;
  trace.enabled = config.bool_or("trace.enabled", trace.enabled);
  trace.ring_capacity = config.uint_or(
      "trace.ring_capacity", trace.ring_capacity);
  obs::MonitorConfig& monitor = flow.noc.monitor;
  monitor.enabled = config.bool_or("monitor.enabled", monitor.enabled);
  monitor.ewma_alpha =
      config.double_or("monitor.ewma_alpha", monitor.ewma_alpha);
  monitor.hot_occupancy =
      config.double_or("monitor.hot_occupancy", monitor.hot_occupancy);
  monitor.persistence_windows = config.uint_or(
      "monitor.persistence_windows", monitor.persistence_windows);

  // -- energy (single source of truth: the NoC config's model, which the
  //    cost model and simulators all reference)
  flow.noc.energy = hw::EnergyModel::from_config(config);

  // -- PSO
  flow.pso.swarm_size = config.uint_or("pso.swarm_size", flow.pso.swarm_size);
  flow.pso.iterations = config.uint_or("pso.iterations", flow.pso.iterations);
  flow.pso.seed_with_baselines = config.bool_or(
      "pso.seed_with_baselines", flow.pso.seed_with_baselines);
  if (const auto objective = config.get_string("pso.objective")) {
    flow.pso.objective = objective_from_string(*objective);
  }
  flow.pso.refine_sweeps = config.uint_or(
      "pso.refine_sweeps", flow.pso.refine_sweeps);
  flow.pso.refine_swap_factor = config.uint_or(
      "pso.refine_swap_factor", flow.pso.refine_swap_factor);
  flow.pso.threads = config.uint_or("pso.threads", flow.pso.threads);

  // -- annealing / genetic (ablation partitioners)
  flow.annealing.moves = config.uint_or(
      "annealing.moves", flow.annealing.moves);
  flow.genetic.population = config.uint_or(
      "genetic.population", flow.genetic.population);
  flow.genetic.generations = config.uint_or(
      "genetic.generations", flow.genetic.generations);
  flow.genetic.threads = config.uint_or(
      "genetic.threads", flow.genetic.threads);

  // -- flow-level switches
  if (const auto partitioner = config.get_string("flow.partitioner")) {
    flow.partitioner = partitioner_from_string(*partitioner);
  }
  flow.comm_aware_placement = config.bool_or("flow.comm_aware_placement",
                                             flow.comm_aware_placement);
  flow.injection_jitter_cycles = config.uint_or(
      "flow.injection_jitter_cycles", flow.injection_jitter_cycles);
  flow.seed = config.uint_or("flow.seed", flow.seed);
  return flow;
}

cosim::CoSimConfig cosim_from_config(const util::Config& config,
                                     cosim::CoSimConfig base) {
  reject_unknown_keys(config);
  base.cycles_per_timestep = config.uint_or(
      "cosim.cycles_per_timestep", base.cycles_per_timestep);
  // "unbounded" (the default) serializes as the sentinel; any positive
  // depth bounds the queue and 0 is rejected by the CoSimulator.
  base.receive_queue_depth = config.uint_or(
      "cosim.receive_queue_depth", base.receive_queue_depth);
  base.injection_jitter_cycles = config.uint_or(
      "cosim.injection_jitter_cycles", base.injection_jitter_cycles);
  // -- DVFS fabric scaling
  if (const auto policy = config.get_string("dvfs.policy")) {
    base.dvfs.kind = cosim::dvfs_policy_from_string(*policy);
  }
  base.dvfs.min_scale =
      config.double_or("dvfs.min_scale", base.dvfs.min_scale);
  // -- AER retry protocol
  base.retry.enabled = config.bool_or("retry.enabled", base.retry.enabled);
  base.retry.max_retries = config.uint_or(
      "retry.max_retries", base.retry.max_retries);
  base.retry.timeout_windows = config.uint_or(
      "retry.timeout_windows", base.retry.timeout_windows);
  return base;
}

void cosim_to_config(const cosim::CoSimConfig& cosim, util::Config& config) {
  config.set("cosim.cycles_per_timestep",
             std::to_string(cosim.cycles_per_timestep));
  config.set("cosim.receive_queue_depth",
             std::to_string(cosim.receive_queue_depth));
  config.set("cosim.injection_jitter_cycles",
             std::to_string(cosim.injection_jitter_cycles));
  config.set("dvfs.policy", cosim::to_string(cosim.dvfs.kind));
  config.set("dvfs.min_scale", std::to_string(cosim.dvfs.min_scale));
  config.set("retry.enabled", cosim.retry.enabled ? "true" : "false");
  config.set("retry.max_retries", std::to_string(cosim.retry.max_retries));
  config.set("retry.timeout_windows",
             std::to_string(cosim.retry.timeout_windows));
}

void mapping_flow_to_config(const MappingFlowConfig& flow,
                            util::Config& config) {
  config.set("arch.crossbars", std::to_string(flow.arch.crossbar_count));
  config.set("arch.neurons_per_crossbar",
             std::to_string(flow.arch.neurons_per_crossbar));
  config.set("arch.interconnect", hw::to_string(flow.arch.interconnect));
  config.set("arch.tree_arity", std::to_string(flow.arch.tree_arity));
  config.set("arch.dragonfly_arity",
             std::to_string(flow.arch.dragonfly_arity));
  config.set("arch.dragonfly_groups",
             std::to_string(flow.arch.dragonfly_groups));
  config.set("arch.dragonfly_global",
             std::to_string(flow.arch.dragonfly_global));
  config.set("arch.fattree_k", std::to_string(flow.arch.fattree_k));
  config.set("arch.chips", std::to_string(flow.arch.chip_count));
  config.set("arch.cycles_per_ms", std::to_string(flow.arch.cycles_per_ms));

  config.set("noc.buffer_depth", std::to_string(flow.noc.buffer_depth));
  config.set("noc.multicast", flow.noc.multicast ? "true" : "false");
  config.set("noc.selection", noc::to_string(flow.noc.selection));
  config.set("noc.mesh_routing", noc::to_string(flow.mesh_routing));
  config.set("noc.max_cycles", std::to_string(flow.noc.max_cycles));
  config.set("noc.offchip_link_latency",
             std::to_string(flow.noc.offchip_link_latency));

  const noc::FaultConfig& faults = flow.noc.faults;
  config.set("faults.seed", std::to_string(faults.seed));
  config.set("faults.link_fault_rate",
             std::to_string(faults.link_fault_rate));
  config.set("faults.router_fault_rate",
             std::to_string(faults.router_fault_rate));
  config.set("faults.tile_fault_rate",
             std::to_string(faults.tile_fault_rate));
  config.set("faults.transient_link_rate",
             std::to_string(faults.transient_link_rate));
  config.set("faults.transient_duration_cycles",
             std::to_string(faults.transient_duration_cycles));
  config.set("faults.flit_drop_probability",
             std::to_string(faults.flit_drop_probability));
  config.set("faults.horizon_cycles",
             std::to_string(faults.horizon_cycles));

  config.set("trace.enabled", flow.noc.trace.enabled ? "true" : "false");
  config.set("trace.ring_capacity",
             std::to_string(flow.noc.trace.ring_capacity));
  config.set("monitor.enabled",
             flow.noc.monitor.enabled ? "true" : "false");
  config.set("monitor.ewma_alpha",
             std::to_string(flow.noc.monitor.ewma_alpha));
  config.set("monitor.hot_occupancy",
             std::to_string(flow.noc.monitor.hot_occupancy));
  config.set("monitor.persistence_windows",
             std::to_string(flow.noc.monitor.persistence_windows));

  flow.noc.energy.to_config(config);

  config.set("pso.swarm_size", std::to_string(flow.pso.swarm_size));
  config.set("pso.iterations", std::to_string(flow.pso.iterations));
  config.set("pso.seed_with_baselines",
             flow.pso.seed_with_baselines ? "true" : "false");
  config.set("pso.objective", to_string(flow.pso.objective));
  config.set("pso.refine_sweeps", std::to_string(flow.pso.refine_sweeps));
  config.set("pso.refine_swap_factor",
             std::to_string(flow.pso.refine_swap_factor));
  config.set("pso.threads", std::to_string(flow.pso.threads));

  config.set("annealing.moves", std::to_string(flow.annealing.moves));
  config.set("genetic.population", std::to_string(flow.genetic.population));
  config.set("genetic.generations",
             std::to_string(flow.genetic.generations));
  config.set("genetic.threads", std::to_string(flow.genetic.threads));

  config.set("flow.partitioner", to_string(flow.partitioner));
  config.set("flow.comm_aware_placement",
             flow.comm_aware_placement ? "true" : "false");
  config.set("flow.injection_jitter_cycles",
             std::to_string(flow.injection_jitter_cycles));
  config.set("flow.seed", std::to_string(flow.seed));
}

}  // namespace snnmap::core
