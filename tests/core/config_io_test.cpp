#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

namespace snnmap::core {
namespace {

TEST(ConfigIo, DefaultsWhenEmpty) {
  const auto flow = mapping_flow_from_config(util::Config{});
  const MappingFlowConfig defaults;
  EXPECT_EQ(flow.arch.crossbar_count, defaults.arch.crossbar_count);
  EXPECT_EQ(flow.arch.interconnect, defaults.arch.interconnect);
  EXPECT_EQ(flow.noc.buffer_depth, defaults.noc.buffer_depth);
  EXPECT_EQ(flow.pso.swarm_size, defaults.pso.swarm_size);
  EXPECT_EQ(flow.partitioner, defaults.partitioner);
  EXPECT_EQ(flow.seed, defaults.seed);
}

TEST(ConfigIo, ParsesFullDocument) {
  const auto cfg = util::Config::parse(
      "arch:\n"
      "  crossbars: 9\n"
      "  neurons_per_crossbar: 64\n"
      "  interconnect: mesh\n"
      "  cycles_per_ms: 250\n"
      "noc:\n"
      "  buffer_depth: 2\n"
      "  multicast: false\n"
      "energy:\n"
      "  link_hop_pj: 42.0\n"
      "pso:\n"
      "  swarm_size: 77\n"
      "  iterations: 33\n"
      "  objective: cut-spikes\n"
      "  seed_with_baselines: false\n"
      "flow:\n"
      "  partitioner: annealing\n"
      "  comm_aware_placement: true\n"
      "  seed: 99\n");
  const auto flow = mapping_flow_from_config(cfg);
  EXPECT_EQ(flow.arch.crossbar_count, 9u);
  EXPECT_EQ(flow.arch.neurons_per_crossbar, 64u);
  EXPECT_EQ(flow.arch.interconnect, hw::InterconnectKind::kMesh);
  EXPECT_EQ(flow.arch.cycles_per_ms, 250u);
  EXPECT_EQ(flow.noc.buffer_depth, 2u);
  EXPECT_FALSE(flow.noc.multicast);
  EXPECT_EQ(flow.energy().link_hop_pj, 42.0);
  EXPECT_EQ(flow.noc.energy.link_hop_pj, 42.0);  // the same object
  EXPECT_EQ(flow.pso.swarm_size, 77u);
  EXPECT_EQ(flow.pso.iterations, 33u);
  EXPECT_EQ(flow.pso.objective, Objective::kCutSpikes);
  EXPECT_FALSE(flow.pso.seed_with_baselines);
  EXPECT_EQ(flow.partitioner, PartitionerKind::kAnnealing);
  EXPECT_TRUE(flow.comm_aware_placement);
  EXPECT_EQ(flow.seed, 99u);
}

TEST(ConfigIo, RoundTripsThroughDump) {
  MappingFlowConfig flow;
  flow.arch.crossbar_count = 12;
  flow.arch.interconnect = hw::InterconnectKind::kRing;
  flow.noc.buffer_depth = 7;
  flow.pso.swarm_size = 321;
  flow.pso.objective = Objective::kCutSpikes;
  flow.partitioner = PartitionerKind::kGenetic;
  flow.comm_aware_placement = true;
  flow.injection_jitter_cycles = 5;
  flow.seed = std::numeric_limits<std::uint64_t>::max();  // full 64-bit range
  flow.noc.energy.aer_codec_pj = 0.25;

  util::Config serialized;
  mapping_flow_to_config(flow, serialized);
  const auto reparsed = util::Config::parse(serialized.dump());
  const auto back = mapping_flow_from_config(reparsed);

  EXPECT_EQ(back.arch.crossbar_count, 12u);
  EXPECT_EQ(back.arch.interconnect, hw::InterconnectKind::kRing);
  EXPECT_EQ(back.noc.buffer_depth, 7u);
  EXPECT_EQ(back.pso.swarm_size, 321u);
  EXPECT_EQ(back.pso.objective, Objective::kCutSpikes);
  EXPECT_EQ(back.partitioner, PartitionerKind::kGenetic);
  EXPECT_TRUE(back.comm_aware_placement);
  EXPECT_EQ(back.injection_jitter_cycles, 5u);
  EXPECT_EQ(back.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_NEAR(back.energy().aer_codec_pj, 0.25, 1e-9);
}

// Integer keys fill unsigned fields: a sign or a value past the field's
// range must throw (naming the key) instead of wrapping into a different,
// often silently valid, setting.  These only load configs; nothing here
// builds a thread pool or fabric from the rejected values.
TEST(ConfigIo, OutOfRangeIntegerKeysThrowNamingTheKey) {
  const auto expect_rejected = [](const std::string& key,
                                  const std::string& value) {
    SCOPED_TRACE(key + ": " + value);
    util::Config cfg;
    cfg.set(key, value);
    try {
      (void)mapping_flow_from_config(cfg);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                std::string::npos)
          << e.what();
    }
  };
  // 32-bit keys.
  expect_rejected("arch.crossbars", "-1");
  expect_rejected("arch.crossbars", "4294967296");
  expect_rejected("noc.buffer_depth", "4294967297");
  expect_rejected("pso.threads", "-1");
  expect_rejected("pso.threads", "+4");
  // 64-bit keys.
  expect_rejected("noc.max_cycles", "-5");
  expect_rejected("flow.seed", "18446744073709551616");

  util::Config cosim;
  cosim.set("cosim.cycles_per_timestep", "4294967296");
  EXPECT_THROW((void)cosim_from_config(cosim, cosim::CoSimConfig{}),
               std::runtime_error);

  // Each field's full range still loads.
  util::Config edges;
  edges.set("arch.crossbars", "4294967295");
  edges.set("noc.max_cycles", "18446744073709551615");
  const auto flow = mapping_flow_from_config(edges);
  EXPECT_EQ(flow.arch.crossbar_count,
            std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(flow.noc.max_cycles, std::numeric_limits<std::uint64_t>::max());
}

TEST(ConfigIo, PartitionerNamesRoundTrip) {
  for (const auto kind :
       {PartitionerKind::kPso, PartitionerKind::kPacman,
        PartitionerKind::kNeutrams, PartitionerKind::kAnnealing,
        PartitionerKind::kGenetic}) {
    EXPECT_EQ(partitioner_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(partitioner_from_string("metis"), std::invalid_argument);
}

TEST(ConfigIo, ObjectiveNamesRoundTrip) {
  for (const auto objective :
       {Objective::kAerPackets, Objective::kCutSpikes}) {
    EXPECT_EQ(objective_from_string(to_string(objective)), objective);
  }
  EXPECT_THROW(objective_from_string("hops"), std::invalid_argument);
}

TEST(ConfigIo, RoutingAndSelectionKeys) {
  const auto cfg = util::Config::parse(
      "noc:\n"
      "  selection: buffer-level\n"
      "  mesh_routing: west-first\n");
  const auto flow = mapping_flow_from_config(cfg);
  EXPECT_EQ(flow.noc.selection, noc::SelectionStrategy::kBufferLevel);
  EXPECT_EQ(flow.mesh_routing, noc::MeshRouting::kWestFirst);

  util::Config out;
  mapping_flow_to_config(flow, out);
  EXPECT_EQ(out.get_string("noc.selection"), "buffer-level");
  EXPECT_EQ(out.get_string("noc.mesh_routing"), "west-first");

  const auto bad = util::Config::parse("noc:\n  selection: psychic\n");
  EXPECT_THROW(mapping_flow_from_config(bad), std::invalid_argument);
}

TEST(ConfigIo, RemovedAndMisspelledKeysThrow) {
  // A key outside the serialized schema must fail loudly: a retired key
  // (PSO's inertia weight is a constant, not a setting) or a typo would
  // otherwise load as if absent and silently run the defaults.
  const auto expect_unknown = [](const std::string& text,
                                 const std::string& quoted_key) {
    SCOPED_TRACE(text);
    const auto cfg = util::Config::parse(text);
    for (const bool cosim : {false, true}) {
      try {
        if (cosim) {
          (void)cosim_from_config(cfg);
        } else {
          (void)mapping_flow_from_config(cfg);
        }
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(quoted_key), std::string::npos)
            << e.what();
      }
    }
  };
  expect_unknown("pso:\n  inertia: 0.72\n", "'pso.inertia'");
  expect_unknown("noc:\n  bufer_depth: 2\n", "'noc.bufer_depth'");
  expect_unknown("noc:\n  engine: cycle\n", "'noc.engine'");
  expect_unknown("pso:\n  patience: 5\n", "'pso.patience'");
  expect_unknown("annealing:\n  restarts: 3\n", "'annealing.restarts'");
  expect_unknown("annealing:\n  threads: 2\n", "'annealing.threads'");

  // One file feeds both loaders, so each accepts the other's keys.
  const auto both = util::Config::parse(
      "cosim:\n  cycles_per_timestep: 250\npso:\n  swarm_size: 7\n");
  EXPECT_EQ(mapping_flow_from_config(both).pso.swarm_size, 7u);
  EXPECT_EQ(cosim_from_config(both).cycles_per_timestep, 250u);
}

TEST(ConfigIo, BadInterconnectNameThrows) {
  const auto cfg = util::Config::parse("arch:\n  interconnect: torus\n");
  try {
    mapping_flow_from_config(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error must enumerate every supported fabric so a typo in an
    // archived config is self-diagnosing.
    const std::string what = e.what();
    for (const char* kind : {"mesh", "tree", "ring", "dragonfly", "fattree"}) {
      EXPECT_NE(what.find(kind), std::string::npos) << kind;
    }
  }
}

TEST(ConfigIo, MultiChipAndFabricKeysRoundTrip) {
  const auto cfg = util::Config::parse(
      "arch:\n"
      "  crossbars: 20\n"
      "  interconnect: dragonfly\n"
      "  dragonfly_arity: 4\n"
      "  dragonfly_groups: 5\n"
      "  dragonfly_global: 1\n"
      "  chips: 5\n"
      "noc:\n"
      "  offchip_link_latency: 7\n"
      "energy:\n"
      "  offchip_link_hop_pj: 33.5\n");
  const auto flow = mapping_flow_from_config(cfg);
  EXPECT_EQ(flow.arch.interconnect, hw::InterconnectKind::kDragonfly);
  EXPECT_EQ(flow.arch.dragonfly_arity, 4u);
  EXPECT_EQ(flow.arch.dragonfly_groups, 5u);
  EXPECT_EQ(flow.arch.dragonfly_global, 1u);
  EXPECT_EQ(flow.arch.chip_count, 5u);
  EXPECT_EQ(flow.noc.offchip_link_latency, 7u);
  EXPECT_EQ(flow.energy().offchip_link_hop_pj, 33.5);

  util::Config out;
  mapping_flow_to_config(flow, out);
  const auto back = mapping_flow_from_config(util::Config::parse(out.dump()));
  EXPECT_EQ(back.arch.dragonfly_arity, 4u);
  EXPECT_EQ(back.arch.dragonfly_groups, 5u);
  EXPECT_EQ(back.arch.dragonfly_global, 1u);
  EXPECT_EQ(back.arch.chip_count, 5u);
  EXPECT_EQ(back.noc.offchip_link_latency, 7u);
  EXPECT_NEAR(back.energy().offchip_link_hop_pj, 33.5, 1e-9);

  const auto ft = mapping_flow_from_config(util::Config::parse(
      "arch:\n  interconnect: fattree\n  fattree_k: 6\n  crossbars: 18\n"));
  EXPECT_EQ(ft.arch.interconnect, hw::InterconnectKind::kFattree);
  EXPECT_EQ(ft.arch.fattree_k, 6u);
}

TEST(ConfigIo, CosimKeysOverlayDefaults) {
  const auto cfg = util::Config::parse(
      "cosim:\n"
      "  cycles_per_timestep: 250\n"
      "  receive_queue_depth: 32\n"
      "  injection_jitter_cycles: 8\n");
  const auto cosim = cosim_from_config(cfg);
  EXPECT_EQ(cosim.cycles_per_timestep, 250u);
  EXPECT_EQ(cosim.receive_queue_depth, 32u);
  EXPECT_EQ(cosim.injection_jitter_cycles, 8u);

  // Absent keys keep the caller's base values.
  cosim::CoSimConfig base;
  base.cycles_per_timestep = 777;
  const auto overlaid = cosim_from_config(util::Config::parse(""), base);
  EXPECT_EQ(overlaid.cycles_per_timestep, 777u);
  EXPECT_EQ(overlaid.receive_queue_depth, cosim::kUnboundedReceiveQueue);
}

TEST(ConfigIo, CosimKeysRoundTripThroughDump) {
  cosim::CoSimConfig cosim;
  cosim.cycles_per_timestep = 123;
  cosim.receive_queue_depth = 9;
  cosim.injection_jitter_cycles = 4;
  cosim.dvfs.kind = cosim::DvfsPolicyKind::kDeadlineSlack;
  cosim.dvfs.min_scale = 0.125;
  util::Config out;
  cosim_to_config(cosim, out);
  const auto back = cosim_from_config(util::Config::parse(out.dump()));
  EXPECT_EQ(back.cycles_per_timestep, 123u);
  EXPECT_EQ(back.receive_queue_depth, 9u);
  EXPECT_EQ(back.injection_jitter_cycles, 4u);
  EXPECT_EQ(back.dvfs.kind, cosim::DvfsPolicyKind::kDeadlineSlack);
  EXPECT_NEAR(back.dvfs.min_scale, 0.125, 1e-9);
}

TEST(ConfigIo, DvfsKeysOverlayDefaults) {
  const auto cfg = util::Config::parse(
      "dvfs:\n"
      "  policy: utilization-threshold\n");
  const auto cosim = cosim_from_config(cfg);
  EXPECT_EQ(cosim.dvfs.kind, cosim::DvfsPolicyKind::kUtilizationThreshold);
  EXPECT_EQ(cosim.dvfs.min_scale, cosim::DvfsPolicy{}.min_scale);  // default

  const auto bad = util::Config::parse("dvfs:\n  policy: psychic\n");
  EXPECT_THROW(cosim_from_config(bad), std::invalid_argument);
}

TEST(ConfigIo, SaveLoadSaveIsByteStable) {
  // Serializing a config, parsing it back and serializing again must
  // produce the identical document — including the energy section (bound
  // once, to the NoC config's model) and the dvfs: keys.  A drifting dump
  // would make archived experiment configs unreproducible.
  MappingFlowConfig flow;
  flow.arch.crossbar_count = 6;
  flow.arch.chip_count = 2;
  flow.noc.energy.link_hop_pj = 12.75;
  flow.noc.energy.aer_codec_pj = 0.375;
  flow.noc.energy.offchip_link_hop_pj = 31.25;
  flow.noc.offchip_link_latency = 3;
  flow.comm_aware_placement = true;
  cosim::CoSimConfig cosim;
  cosim.cycles_per_timestep = 640;
  cosim.dvfs.kind = cosim::DvfsPolicyKind::kUtilizationThreshold;
  cosim.dvfs.min_scale = 0.0625;

  util::Config first;
  mapping_flow_to_config(flow, first);
  cosim_to_config(cosim, first);
  const std::string saved = first.dump();

  const auto loaded = util::Config::parse(saved);
  const auto flow_back = mapping_flow_from_config(loaded);
  const auto cosim_back = cosim_from_config(loaded);
  util::Config second;
  mapping_flow_to_config(flow_back, second);
  cosim_to_config(cosim_back, second);
  EXPECT_EQ(saved, second.dump());

  // The energy section landed in the single shared model.
  EXPECT_EQ(flow_back.noc.energy.link_hop_pj, flow.noc.energy.link_hop_pj);
  EXPECT_EQ(&flow_back.energy(), &flow_back.noc.energy);
}

TEST(ConfigIo, FaultKeysOverlayDefaults) {
  const auto cfg = util::Config::parse(
      "faults:\n"
      "  seed: 77\n"
      "  link_fault_rate: 0.125\n"
      "  tile_fault_rate: 0.0625\n"
      "  transient_link_rate: 0.25\n"
      "  transient_duration_cycles: 512\n"
      "  flit_drop_probability: 0.03125\n"
      "  horizon_cycles: 40000\n"
      "retry:\n"
      "  enabled: true\n"
      "  max_retries: 5\n"
      "  timeout_windows: 16\n");
  const auto flow = mapping_flow_from_config(cfg);
  EXPECT_EQ(flow.noc.faults.seed, 77u);
  EXPECT_EQ(flow.noc.faults.link_fault_rate, 0.125);
  EXPECT_EQ(flow.noc.faults.router_fault_rate, 0.0);  // absent: default
  EXPECT_EQ(flow.noc.faults.tile_fault_rate, 0.0625);
  EXPECT_EQ(flow.noc.faults.transient_link_rate, 0.25);
  EXPECT_EQ(flow.noc.faults.transient_duration_cycles, 512u);
  EXPECT_EQ(flow.noc.faults.flit_drop_probability, 0.03125);
  EXPECT_EQ(flow.noc.faults.horizon_cycles, 40000u);
  EXPECT_TRUE(flow.noc.faults.any());

  const auto cosim = cosim_from_config(cfg);
  EXPECT_TRUE(cosim.retry.enabled);
  EXPECT_EQ(cosim.retry.max_retries, 5u);
  EXPECT_EQ(cosim.retry.timeout_windows, 16u);

  // An empty document keeps the inert defaults.
  const auto plain = mapping_flow_from_config(util::Config::parse(""));
  EXPECT_FALSE(plain.noc.faults.any());
  EXPECT_FALSE(cosim_from_config(util::Config::parse("")).retry.enabled);
}

TEST(ConfigIo, FaultAndRetryKeysAreByteStable) {
  // The faults: and retry: sections must survive save -> load -> save with
  // an identical byte stream, like every other section.
  MappingFlowConfig flow;
  flow.noc.faults.seed = 9;
  flow.noc.faults.link_fault_rate = 0.375;
  flow.noc.faults.router_fault_rate = 0.125;
  flow.noc.faults.transient_link_rate = 0.5;
  flow.noc.faults.transient_duration_cycles = 2048;
  flow.noc.faults.flit_drop_probability = 0.015625;
  flow.noc.faults.horizon_cycles = 100000;
  cosim::CoSimConfig cosim;
  cosim.retry.enabled = true;
  cosim.retry.max_retries = 7;
  cosim.retry.timeout_windows = 24;

  util::Config first;
  mapping_flow_to_config(flow, first);
  cosim_to_config(cosim, first);
  const std::string saved = first.dump();

  const auto loaded = util::Config::parse(saved);
  const auto flow_back = mapping_flow_from_config(loaded);
  const auto cosim_back = cosim_from_config(loaded);
  util::Config second;
  mapping_flow_to_config(flow_back, second);
  cosim_to_config(cosim_back, second);
  EXPECT_EQ(saved, second.dump());

  EXPECT_EQ(flow_back.noc.faults.seed, 9u);
  EXPECT_EQ(flow_back.noc.faults.link_fault_rate, 0.375);
  EXPECT_EQ(flow_back.noc.faults.flit_drop_probability, 0.015625);
  EXPECT_EQ(flow_back.noc.faults.horizon_cycles, 100000u);
  EXPECT_TRUE(cosim_back.retry.enabled);
  EXPECT_EQ(cosim_back.retry.max_retries, 7u);
  EXPECT_EQ(cosim_back.retry.timeout_windows, 24u);
}

TEST(ConfigIo, TraceAndMonitorKeysOverlayDefaults) {
  const auto cfg = util::Config::parse(
      "trace:\n"
      "  enabled: true\n"
      "  ring_capacity: 1024\n"
      "monitor:\n"
      "  enabled: true\n"
      "  ewma_alpha: 0.5\n"
      "  hot_occupancy: 0.75\n"
      "  persistence_windows: 5\n");
  const auto flow = mapping_flow_from_config(cfg);
  EXPECT_TRUE(flow.noc.trace.enabled);
  EXPECT_EQ(flow.noc.trace.ring_capacity, 1024u);
  EXPECT_TRUE(flow.noc.monitor.enabled);
  EXPECT_EQ(flow.noc.monitor.ewma_alpha, 0.5);
  EXPECT_EQ(flow.noc.monitor.hot_occupancy, 0.75);
  EXPECT_EQ(flow.noc.monitor.persistence_windows, 5u);

  // An empty document keeps the inert defaults: nothing traces, nothing
  // is monitored.
  const auto plain = mapping_flow_from_config(util::Config::parse(""));
  EXPECT_FALSE(plain.noc.trace.enabled);
  EXPECT_FALSE(plain.noc.monitor.enabled);
}

TEST(ConfigIo, TraceAndMonitorKeysAreByteStable) {
  MappingFlowConfig flow;
  flow.noc.trace.enabled = true;
  flow.noc.trace.ring_capacity = 4096;
  flow.noc.monitor.enabled = true;
  flow.noc.monitor.ewma_alpha = 0.125;
  flow.noc.monitor.hot_occupancy = 0.25;
  flow.noc.monitor.persistence_windows = 4;

  util::Config first;
  mapping_flow_to_config(flow, first);
  const std::string saved = first.dump();

  const auto loaded = util::Config::parse(saved);
  const auto flow_back = mapping_flow_from_config(loaded);
  util::Config second;
  mapping_flow_to_config(flow_back, second);
  EXPECT_EQ(saved, second.dump());

  EXPECT_TRUE(flow_back.noc.trace.enabled);
  EXPECT_EQ(flow_back.noc.trace.ring_capacity, 4096u);
  EXPECT_EQ(flow_back.noc.monitor.ewma_alpha, 0.125);
  EXPECT_EQ(flow_back.noc.monitor.persistence_windows, 4u);
}

TEST(ConfigIo, DegenerateTraceAndMonitorConfigsThrowAtSimulatorBuild) {
  // Validation parity: config_io binds the raw values; the simulator
  // constructor rejects degenerate ones exactly like faults/energy.
  {
    noc::NocConfig bad;
    bad.trace.enabled = true;
    bad.trace.ring_capacity = 0;
    EXPECT_THROW(noc::NocSimulator(noc::Topology::ring(2), bad),
                 std::invalid_argument);
  }
  {
    noc::NocConfig bad;
    bad.monitor.enabled = true;
    bad.monitor.ewma_alpha = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(noc::NocSimulator(noc::Topology::ring(2), bad),
                 std::invalid_argument);
  }
  {
    noc::NocConfig bad;
    bad.monitor.enabled = true;
    bad.monitor.hot_occupancy = -1.0;
    EXPECT_THROW(noc::NocSimulator(noc::Topology::ring(2), bad),
                 std::invalid_argument);
  }
}

TEST(ConfigIo, AnnealingAndGeneticKeys) {
  const auto cfg = util::Config::parse(
      "annealing:\n"
      "  moves: 1234\n"
      "genetic:\n"
      "  population: 21\n");
  const auto flow = mapping_flow_from_config(cfg);
  EXPECT_EQ(flow.annealing.moves, 1234u);
  EXPECT_EQ(flow.genetic.population, 21u);
}

// The serialized config schema, pinned key for key.  snnmap-lint's
// config-key-coverage rule statically cross-checks that every key config_io
// reads or writes appears in this file; this test closes the loop at
// runtime: the byte-stable round-trip above covers exactly this key set, so
// a key added to config_io without extending this list fails here, and a
// key dropped from to_config breaks the list (and byte-stability) too.
TEST(ConfigIo, SerializedSchemaIsPinned) {
  static const char* const kSchema[] = {
      "annealing.moves",
      "arch.chips",
      "arch.crossbars",
      "arch.cycles_per_ms",
      "arch.dragonfly_arity",
      "arch.dragonfly_global",
      "arch.dragonfly_groups",
      "arch.fattree_k",
      "arch.interconnect",
      "arch.neurons_per_crossbar",
      "arch.tree_arity",
      "cosim.cycles_per_timestep",
      "cosim.injection_jitter_cycles",
      "cosim.receive_queue_depth",
      "dvfs.min_scale",
      "dvfs.policy",
      "energy.aer_codec_pj",
      "energy.crossbar_event_pj",
      "energy.link_hop_pj",
      "energy.offchip_link_hop_pj",
      "energy.retransmit_pj",
      "energy.router_flit_pj",
      "faults.flit_drop_probability",
      "faults.horizon_cycles",
      "faults.link_fault_rate",
      "faults.router_fault_rate",
      "faults.seed",
      "faults.tile_fault_rate",
      "faults.transient_duration_cycles",
      "faults.transient_link_rate",
      "flow.comm_aware_placement",
      "flow.injection_jitter_cycles",
      "flow.partitioner",
      "flow.seed",
      "genetic.generations",
      "genetic.population",
      "genetic.threads",
      "monitor.enabled",
      "monitor.ewma_alpha",
      "monitor.hot_occupancy",
      "monitor.persistence_windows",
      "noc.buffer_depth",
      "noc.max_cycles",
      "noc.mesh_routing",
      "noc.multicast",
      "noc.offchip_link_latency",
      "noc.selection",
      "pso.iterations",
      "pso.objective",
      "pso.refine_swap_factor",
      "pso.refine_sweeps",
      "pso.seed_with_baselines",
      "pso.swarm_size",
      "pso.threads",
      "retry.enabled",
      "retry.max_retries",
      "retry.timeout_windows",
      "trace.enabled",
      "trace.ring_capacity",
  };
  util::Config serialized;
  mapping_flow_to_config(MappingFlowConfig{}, serialized);
  cosim_to_config(cosim::CoSimConfig{}, serialized);
  const auto keys = serialized.keys();
  ASSERT_EQ(keys.size(), std::size(kSchema));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], kSchema[i]) << "schema drift at index " << i;
  }
}

}  // namespace
}  // namespace snnmap::core
