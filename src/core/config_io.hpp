// Config-file binding for the mapping flow.
//
// Noxim drives its simulations from a YAML file; Noxim++ keeps that and the
// paper's framework wraps it.  This module binds the whole MappingFlowConfig
// to the util::Config YAML-subset, so experiments are reproducible from a
// single text file (see examples/snnmap_cli.cpp):
//
//   arch:
//     crossbars: 4
//     neurons_per_crossbar: 256
//     interconnect: tree        # mesh | tree | ring | dragonfly | fattree
//     tree_arity: 4
//     dragonfly_arity: 4        # dragonfly: routers per group (a)
//     dragonfly_groups: 5       # dragonfly: groups (g)
//     dragonfly_global: 1       # dragonfly: global channels per router (h)
//     fattree_k: 4              # fat-tree radix (even)
//     chips: 1                  # > 1 splits tiles across chips (off-chip links)
//     cycles_per_ms: 1000
//   noc:
//     buffer_depth: 4
//     multicast: true
//     offchip_link_latency: 2   # extra cycles per inter-chip link crossing
//   energy:
//     crossbar_event_pj: 2.2
//     link_hop_pj: 10.5
//     offchip_link_hop_pj: 26.0
//     router_flit_pj: 6.0
//     aer_codec_pj: 1.8
//   pso:
//     swarm_size: 100
//     iterations: 100
//   flow:
//     partitioner: pso          # pso | pacman | neutrams | annealing | genetic
//     comm_aware_placement: false
//     injection_jitter_cycles: 32
//     seed: 42
//
// Absent keys keep their defaults.  A key outside the serialized schema
// (what mapping_flow_to_config and cosim_to_config write) throws
// std::invalid_argument naming it, so a misspelled or retired key cannot
// load as if it were absent.  The `energy:` section binds to the one
// shared hw::EnergyModel (MappingFlowConfig's noc.energy — there is no
// second flow-level copy to drift from it).
// The closed-loop co-simulation knobs bind under `cosim:` and `dvfs:`
// sections:
//
//   cosim:
//     cycles_per_timestep: 1000
//     receive_queue_depth: 64     # omit for an unbounded (no-drop) queue
//     injection_jitter_cycles: 0
//   dvfs:
//     policy: fixed               # fixed | utilization-threshold | deadline-slack
//     min_scale: 0.25
//
// Fault injection binds under `faults:` (into the flow's NoC config; the
// all-zero defaults keep the model inert) and the AER retry protocol under
// `retry:` (into the co-sim config):
//
//   faults:
//     seed: 0
//     link_fault_rate: 0.0        # per-link permanent-failure probability
//     router_fault_rate: 0.0
//     tile_fault_rate: 0.0
//     transient_link_rate: 0.0
//     transient_duration_cycles: 1000
//     flit_drop_probability: 0.0  # per link traversal, in [0, 1)
//     horizon_cycles: 0           # 0 = co-sim auto-fills its timeline
//   retry:
//     enabled: false
//     max_retries: 3
//     timeout_windows: 8
//
// Observability binds under `trace:` and `monitor:` (into the flow's NoC
// config; both default off — the default config records nothing and the
// golden spike streams are untouched):
//
//   trace:
//     enabled: false
//     ring_capacity: 65536        # most-recent events kept for export
//   monitor:
//     enabled: false
//     ewma_alpha: 0.25            # per-window EWMA smoothing, in (0, 1]
//     hot_occupancy: 0.5          # flits/cycle EWMA marking a link hot
//     persistence_windows: 3      # consecutive hot windows = persistently hot
#pragma once

#include <string>

#include "core/framework.hpp"
#include "cosim/cosim.hpp"
#include "util/config.hpp"

namespace snnmap::core {

/// Parses "pso" / "pacman" / "neutrams" / "annealing" / "genetic";
/// throws std::invalid_argument on unknown names.
PartitionerKind partitioner_from_string(const std::string& name);

/// Parses "aer-packets" / "cut-spikes"; throws on unknown names.
Objective objective_from_string(const std::string& name);

/// Builds a flow config from a parsed file, starting from defaults.  Throws
/// std::invalid_argument on a key neither *_to_config function writes.
MappingFlowConfig mapping_flow_from_config(const util::Config& config);

/// Serializes the effective configuration (round-trips via the parser).
void mapping_flow_to_config(const MappingFlowConfig& flow,
                            util::Config& config);

/// Overlays the `cosim.*` keys onto `base` (absent keys keep base values);
/// unknown keys throw as in mapping_flow_from_config.
/// Only the co-sim-specific scalars are bound here; the embedded snn / noc
/// sub-configs stay whatever the caller put in `base` — the CLI derives
/// them from the app's simulation config and the flow's NoC section.
cosim::CoSimConfig cosim_from_config(const util::Config& config,
                                     cosim::CoSimConfig base = {});

/// Serializes the co-sim scalars (round-trips via cosim_from_config).
void cosim_to_config(const cosim::CoSimConfig& cosim, util::Config& config);

}  // namespace snnmap::core
