// Determinism regression for the parallel batch-evaluation layer: with a
// fixed seed, every optimizer must produce bit-identical results whether
// fitness evaluation (PSO/GA) or restart chains (SA) run serially or on a
// worker pool, and SNN and co-sim scenario batches fanned out with
// util::ThreadPool::map must match standalone runs bit for bit regardless
// of thread count or submission order.  Guards against evaluation-order
// nondeterminism sneaking into the hot path.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "core/genetic.hpp"
#include "core/placement.hpp"
#include "core/pso.hpp"
#include "cosim/cosim.hpp"
#include "cosim/fidelity.hpp"
#include "noc/topology.hpp"
#include "snn/graph.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace snnmap::core {
namespace {

/// Random sparse workload: 48 neurons, mixed spike counts.
snn::SnnGraph workload() {
  util::Rng rng(77);
  std::vector<snn::GraphEdge> edges;
  for (int e = 0; e < 300; ++e) {
    const auto pre = static_cast<std::uint32_t>(rng.below(48));
    auto post = static_cast<std::uint32_t>(rng.below(48));
    if (post == pre) post = (post + 1) % 48;
    edges.push_back({pre, post, 1.0F});
  }
  std::vector<snn::SpikeTrain> trains;
  for (int i = 0; i < 48; ++i) {
    snn::SpikeTrain train;
    const auto spikes = rng.below(5) + 1;
    for (std::uint64_t s = 0; s < spikes; ++s) {
      train.push_back(static_cast<double>(s) + 0.25);
    }
    trains.push_back(std::move(train));
  }
  return snn::SnnGraph::from_parts(48, std::move(edges), std::move(trains),
                                   10.0);
}

hw::Architecture arch_6x10() {
  hw::Architecture arch;
  arch.crossbar_count = 6;
  arch.neurons_per_crossbar = 10;
  return arch;
}

TEST(Determinism, PsoSerialAndParallelMatchBitForBit) {
  const auto graph = workload();
  PsoConfig config;
  config.swarm_size = 12;
  config.iterations = 8;
  config.seed = 5;
  config.track_history = true;

  config.threads = 1;
  const auto serial = PsoPartitioner(graph, arch_6x10(), config).optimize();
  config.threads = 4;
  const auto parallel = PsoPartitioner(graph, arch_6x10(), config).optimize();

  EXPECT_EQ(serial.best, parallel.best);
  EXPECT_EQ(serial.best_cost, parallel.best_cost);
  EXPECT_EQ(serial.iterations_run, parallel.iterations_run);
  EXPECT_EQ(serial.fitness_evaluations, parallel.fitness_evaluations);
  EXPECT_EQ(serial.history, parallel.history);
}

/// Runs `config` at threads 1, 2, 3 and 8 and expects the whole PsoResult
/// to match the serial run; returns the serial result.  Baseline seeding
/// and the memetic refinement are switched off: on this small workload
/// either one reaches the same optimum from any swarm, which would hide a
/// particle stream that depends on the worker rather than the particle.
PsoResult expect_pso_thread_invariant(PsoConfig config) {
  config.seed_with_baselines = false;
  config.refine_sweeps = 0;
  config.refine_swap_factor = 0;
  config.track_history = true;
  config.threads = 1;
  const auto graph = workload();
  const auto serial = PsoPartitioner(graph, arch_6x10(), config).optimize();
  for (const std::uint32_t threads : {2u, 3u, 8u}) {
    config.threads = threads;
    const auto parallel =
        PsoPartitioner(graph, arch_6x10(), config).optimize();
    EXPECT_EQ(serial.best, parallel.best) << threads << " threads";
    EXPECT_EQ(serial.best_cost, parallel.best_cost) << threads << " threads";
    EXPECT_EQ(serial.history, parallel.history) << threads << " threads";
    EXPECT_EQ(serial.iterations_run, parallel.iterations_run)
        << threads << " threads";
    EXPECT_EQ(serial.fitness_evaluations, parallel.fitness_evaluations)
        << threads << " threads";
  }
  return serial;
}

TEST(Determinism, PsoUnevenSwarmMatchesAtEveryThreadCount) {
  // 7 particles: uneven blocks at 2 and 3 threads, and more threads than
  // particles at 8.
  PsoConfig config;
  config.swarm_size = 7;
  config.iterations = 9;
  config.seed = 13;
  const auto serial = expect_pso_thread_invariant(config);
  EXPECT_EQ(serial.fitness_evaluations, 7u * 9u);
}

TEST(Determinism, PsoCutSpikesMatchesAtEveryThreadCount) {
  PsoConfig config;
  config.swarm_size = 9;
  config.iterations = 8;
  config.seed = 19;
  config.objective = Objective::kCutSpikes;
  expect_pso_thread_invariant(config);
}

TEST(Determinism, GeneticSerialAndParallelMatchBitForBit) {
  const auto graph = workload();
  GeneticConfig config;
  config.population = 16;
  config.generations = 10;
  config.seed = 9;
  config.track_history = true;

  config.threads = 1;
  const auto serial = genetic_partition(graph, arch_6x10(), config);
  config.threads = 4;
  const auto parallel = genetic_partition(graph, arch_6x10(), config);

  EXPECT_EQ(serial.best, parallel.best);
  EXPECT_EQ(serial.best_cost, parallel.best_cost);
  EXPECT_EQ(serial.generations_run, parallel.generations_run);
  EXPECT_EQ(serial.fitness_evaluations, parallel.fitness_evaluations);
  EXPECT_EQ(serial.history, parallel.history);
}

/// Deterministic little SNN used by the batch tests; `variant`
/// perturbs the wiring seed so scenarios are distinguishable.
snn::Network batch_snn_network(std::uint64_t variant) {
  snn::Network net;
  util::Rng rng(100 + variant);
  const auto in = net.add_poisson_group("in", 8, 40.0);
  const auto mid = net.add_lif_group("mid", 12);
  const auto out = net.add_izhikevich_group(
      "out", 6, snn::IzhikevichParams::regular_spiking());
  net.connect_random(in, mid, 0.6, snn::WeightSpec::uniform(8.0, 13.0), rng,
                     /*delay=*/1, /*plastic=*/true);
  net.connect_random(mid, out, 0.5, snn::WeightSpec::uniform(6.0, 9.0), rng,
                     /*delay=*/3);
  return net;
}

/// One independent SNN run of a batch.  `build` returns a fresh Network per
/// run (STDP mutates weights in place, so instances cannot be shared) and
/// is called on the worker that simulates the run.
struct SnnCase {
  std::function<snn::Network()> build;
  snn::SimulationConfig config;
};

/// The spike trains plus the final synapse weights (the STDP-visible state
/// the trains alone don't expose).
struct SnnRun {
  snn::SimulationResult result;
  std::vector<float> final_weights;  ///< synapse order of the built Network
};

std::vector<SnnRun> run_snn_batch(std::uint32_t threads,
                                  const std::vector<SnnCase>& cases) {
  return util::ThreadPool(threads).map(cases.size(), [&cases](std::size_t i) {
    snn::Network net = cases[i].build();
    SnnRun run;
    run.result = snn::Simulator(net, cases[i].config).run();
    for (const snn::Synapse& s : net.synapses()) {
      run.final_weights.push_back(s.weight);
    }
    return run;
  });
}

std::vector<SnnCase> batch_snn_scenarios() {
  std::vector<SnnCase> scenarios;
  for (std::uint64_t v = 0; v < 6; ++v) {
    snn::SimulationConfig config;
    config.duration_ms = 300.0;
    config.seed = 7 * v + 1;
    config.enable_stdp = v % 2 == 0;
    scenarios.push_back({[v] { return batch_snn_network(v); }, config});
  }
  return scenarios;
}

void expect_same_results(const std::vector<SnnRun>& a,
                         const std::vector<SnnRun>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].result.total_spikes, b[i].result.total_spikes) << i;
    EXPECT_EQ(a[i].result.spikes, b[i].result.spikes) << i;
    EXPECT_EQ(a[i].final_weights, b[i].final_weights) << i;
  }
}

TEST(Determinism, BatchSnnSerialAndParallelMatchBitForBit) {
  const auto scenarios = batch_snn_scenarios();
  expect_same_results(run_snn_batch(1, scenarios),
                      run_snn_batch(4, scenarios));
}

TEST(Determinism, BatchSnnMatchesStandaloneSimulator) {
  const auto scenarios = batch_snn_scenarios();
  const auto batched = run_snn_batch(3, scenarios);
  ASSERT_EQ(batched.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    snn::Network net = scenarios[i].build();
    snn::Simulator sim(net, scenarios[i].config);
    const auto standalone = sim.run();
    EXPECT_EQ(batched[i].result.spikes, standalone.spikes) << i;
    EXPECT_EQ(batched[i].result.total_spikes, standalone.total_spikes) << i;
    for (std::size_t s = 0; s < net.synapses().size(); ++s) {
      EXPECT_EQ(batched[i].final_weights[s], net.synapses()[s].weight);
    }
  }
}

TEST(Determinism, BatchSnnIndependentOfSubmissionOrder) {
  const auto scenarios = batch_snn_scenarios();
  std::vector<SnnCase> reversed(scenarios.rbegin(), scenarios.rend());
  const auto forward = run_snn_batch(4, scenarios);
  auto backward = run_snn_batch(4, reversed);
  std::reverse(backward.begin(), backward.end());
  expect_same_results(forward, backward);
}

TEST(Determinism, BatchSnnSeedSweepMatchesPerSeedRuns) {
  snn::SimulationConfig config;
  config.duration_ms = 250.0;
  const std::vector<std::uint64_t> seeds = {3, 1, 4, 1, 5, 9};
  std::vector<SnnCase> cases;
  for (const std::uint64_t seed : seeds) {
    config.seed = seed;
    cases.push_back({[] { return batch_snn_network(2); }, config});
  }
  const auto sweep = run_snn_batch(0, cases);  // auto-resolve thread count
  ASSERT_EQ(sweep.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    snn::Network net = batch_snn_network(2);
    config.seed = seeds[i];
    snn::Simulator sim(net, config);
    EXPECT_EQ(sweep[i].result.spikes, sim.run().spikes) << "seed " << seeds[i];
  }
  // Duplicate seeds (index 1 and 3) must produce identical results.
  EXPECT_EQ(sweep[1].result.spikes, sweep[3].result.spikes);
  EXPECT_EQ(sweep[1].final_weights, sweep[3].final_weights);
}

/// Like batch_snn_network but without plastic synapses: the half/half
/// partition below cuts the in->mid projection, and cut synapses must not
/// be plastic (their weights would live on the remote crossbar).
snn::Network batch_cosim_network(std::uint64_t variant) {
  snn::Network net;
  util::Rng rng(100 + variant);
  const auto in = net.add_poisson_group("in", 8, 40.0);
  const auto mid = net.add_lif_group("mid", 12);
  const auto out = net.add_izhikevich_group(
      "out", 6, snn::IzhikevichParams::regular_spiking());
  net.connect_random(in, mid, 0.6, snn::WeightSpec::uniform(8.0, 13.0), rng,
                     /*delay=*/1);
  net.connect_random(mid, out, 0.5, snn::WeightSpec::uniform(6.0, 9.0), rng,
                     /*delay=*/3);
  return net;
}

/// One independent closed-loop co-simulation of a batch; `build` returns a
/// fresh Network per run (the co-sim cut marks are per-instance state).
struct CoSimCase {
  std::function<snn::Network()> build;
  Partition partition;
  Placement placement;
  noc::Topology topology;
  cosim::CoSimConfig config;
};

/// A closed-loop run plus its divergence from the same-seed ideal run.
struct CoSimRun {
  cosim::CoSimResult result;
  cosim::SpikeDivergence divergence;
};

/// Runs every case on `threads` workers (topologies move into the
/// simulators); results[i] is cases[i]'s.
std::vector<CoSimRun> run_cosim_batch(std::uint32_t threads,
                                      std::vector<CoSimCase> cases) {
  return util::ThreadPool(threads).map(cases.size(), [&cases](std::size_t i) {
    CoSimCase& c = cases[i];
    snn::Network net = c.build();
    CoSimRun run;
    run.result = cosim::CoSimulator(net, c.partition, c.placement,
                                    std::move(c.topology), c.config)
                     .run();
    snn::Network reference = c.build();
    run.divergence = cosim::spike_divergence(
        snn::Simulator(reference, c.config.snn).run().spikes,
        run.result.snn.spikes);
    return run;
  });
}

/// Co-sim scenario batch over the deterministic little SNNs: two crossbars
/// (first half / second half of the ids), varying seeds and cycle budgets —
/// including congested ones, where transport actually reorders work.
std::vector<CoSimCase> batch_cosim_scenarios() {
  std::vector<CoSimCase> scenarios;
  for (std::uint64_t v = 0; v < 6; ++v) {
    snn::Network probe = batch_cosim_network(v);
    const std::uint32_t n = probe.neuron_count();
    Partition partition(n, 2);
    for (std::uint32_t i = 0; i < n; ++i) {
      partition.assign(i, i < n / 2 ? 0 : 1);
    }
    noc::Topology topology = noc::Topology::ring(2);
    CoSimCase sc{.build = [v] { return batch_cosim_network(v); },
                 .partition = std::move(partition),
                 .placement = identity_placement(2, topology),
                 .topology = std::move(topology),
                 .config = {}};
    sc.config.snn.duration_ms = 250.0;
    sc.config.snn.seed = 7 * v + 1;
    sc.config.cycles_per_timestep = v % 2 == 0 ? 512 : 3;  // ideal / congested
    if (v == 5) sc.config.receive_queue_depth = 1;
    // Cover every DVFS policy so the frequency trajectory and the scaled
    // energy accumulators are pinned across thread counts too.
    sc.config.dvfs.kind = v % 3 == 0
                              ? cosim::DvfsPolicyKind::kFixed
                              : (v % 3 == 1
                                     ? cosim::DvfsPolicyKind::
                                           kUtilizationThreshold
                                     : cosim::DvfsPolicyKind::kDeadlineSlack);
    scenarios.push_back(std::move(sc));
  }
  return scenarios;
}

void expect_same_cosim_results(const std::vector<CoSimRun>& a,
                               const std::vector<CoSimRun>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].result.snn.total_spikes, b[i].result.snn.total_spikes)
        << i;
    EXPECT_EQ(a[i].result.snn.spikes, b[i].result.snn.spikes) << i;
    EXPECT_EQ(a[i].result.fidelity.copies_accepted,
              b[i].result.fidelity.copies_accepted)
        << i;
    EXPECT_EQ(a[i].result.fidelity.deadline_misses,
              b[i].result.fidelity.deadline_misses)
        << i;
    EXPECT_EQ(a[i].result.fidelity.receive_drops,
              b[i].result.fidelity.receive_drops)
        << i;
    // Energy accumulators and the DVFS trajectory are part of the
    // bit-identical contract: EXPECT_EQ on the doubles, not NEAR.
    EXPECT_EQ(a[i].result.fidelity.fabric_energy_pj,
              b[i].result.fidelity.fabric_energy_pj)
        << i;
    EXPECT_EQ(a[i].result.fidelity.per_step_energy_pj,
              b[i].result.fidelity.per_step_energy_pj)
        << i;
    EXPECT_EQ(a[i].result.fidelity.per_step_cycles,
              b[i].result.fidelity.per_step_cycles)
        << i;
    EXPECT_EQ(a[i].result.fidelity.window_energy_pj.sum(),
              b[i].result.fidelity.window_energy_pj.sum())
        << i;
    EXPECT_EQ(a[i].result.fidelity.freq_scale.mean(),
              b[i].result.fidelity.freq_scale.mean())
        << i;
    EXPECT_EQ(a[i].result.noc.global_energy_pj,
              b[i].result.noc.global_energy_pj)
        << i;
    EXPECT_EQ(a[i].divergence.matched, b[i].divergence.matched) << i;
    EXPECT_EQ(a[i].divergence.only_ideal, b[i].divergence.only_ideal) << i;
    EXPECT_EQ(a[i].divergence.only_cosim, b[i].divergence.only_cosim) << i;
    // The resilience path is seeded per scenario; its counters are part of
    // the same bit-identical contract (all zero on fault-free scenarios).
    EXPECT_EQ(a[i].result.resilience.noc_faults.flits_dropped,
              b[i].result.resilience.noc_faults.flits_dropped)
        << i;
    EXPECT_EQ(a[i].result.resilience.noc_faults.copies_lost(),
              b[i].result.resilience.noc_faults.copies_lost())
        << i;
    EXPECT_EQ(a[i].result.resilience.retransmit_packets,
              b[i].result.resilience.retransmit_packets)
        << i;
    EXPECT_EQ(a[i].result.resilience.retry_recoveries,
              b[i].result.resilience.retry_recoveries)
        << i;
    EXPECT_EQ(a[i].result.resilience.spikes_lost_timeout,
              b[i].result.resilience.spikes_lost_timeout)
        << i;
    EXPECT_EQ(a[i].result.resilience.neurons_migrated,
              b[i].result.resilience.neurons_migrated)
        << i;
    EXPECT_EQ(a[i].result.resilience.retransmit_energy_pj,
              b[i].result.resilience.retransmit_energy_pj)
        << i;
    // Observability is part of the contract too: the trace digest covers
    // every recorded event (zero when tracing is off) and the congestion
    // monitor's EWMAs are pure functions of the windowed activity.
    EXPECT_EQ(a[i].result.trace_digest, b[i].result.trace_digest) << i;
    EXPECT_EQ(a[i].result.trace_recorded, b[i].result.trace_recorded) << i;
    EXPECT_EQ(a[i].result.fidelity.congestion.hot_links,
              b[i].result.fidelity.congestion.hot_links)
        << i;
    EXPECT_EQ(a[i].result.fidelity.congestion.max_ewma_occupancy,
              b[i].result.fidelity.congestion.max_ewma_occupancy)
        << i;
  }
}

TEST(Determinism, BatchCoSimSerialAndParallelMatchBitForBit) {
  expect_same_cosim_results(run_cosim_batch(1, batch_cosim_scenarios()),
                            run_cosim_batch(4, batch_cosim_scenarios()));
}

TEST(Determinism, BatchCoSimMatchesStandaloneCoSimulator) {
  auto scenarios = batch_cosim_scenarios();
  const auto batched = run_cosim_batch(3, batch_cosim_scenarios());
  ASSERT_EQ(batched.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    snn::Network net = scenarios[i].build();
    cosim::CoSimulator sim(net, scenarios[i].partition,
                           scenarios[i].placement,
                           std::move(scenarios[i].topology),
                           scenarios[i].config);
    const auto standalone = sim.run();
    EXPECT_EQ(batched[i].result.snn.spikes, standalone.snn.spikes) << i;
    EXPECT_EQ(batched[i].result.fidelity.copies_accepted,
              standalone.fidelity.copies_accepted)
        << i;
  }
}

TEST(Determinism, BatchCoSimIndependentOfSubmissionOrder) {
  auto forward_scenarios = batch_cosim_scenarios();
  auto reversed_scenarios = batch_cosim_scenarios();
  std::reverse(reversed_scenarios.begin(), reversed_scenarios.end());
  const auto forward = run_cosim_batch(4, std::move(forward_scenarios));
  auto backward = run_cosim_batch(4, std::move(reversed_scenarios));
  std::reverse(backward.begin(), backward.end());
  expect_same_cosim_results(forward, backward);
}

/// Faulted variants of the co-sim batch: seeded random faults, flit drops,
/// the AER retry protocol, and one scheduled permanent tile fault — the
/// full resilience path under parallel batch evaluation.
std::vector<CoSimCase> batch_faulted_scenarios() {
  std::vector<CoSimCase> scenarios = batch_cosim_scenarios();
  for (std::size_t v = 0; v < scenarios.size(); ++v) {
    noc::FaultConfig& faults = scenarios[v].config.noc.faults;
    faults.seed = 40 + v;
    faults.flit_drop_probability = v % 2 == 0 ? 0.1 : 0.0;
    if (v % 3 == 0) {
      faults.link_fault_rate = 0.3;
      faults.transient_link_rate = 0.3;
      faults.transient_duration_cycles = 64;
      // horizon_cycles stays 0: the co-simulator auto-fills its timeline.
    }
    if (v == 4) {
      noc::ScheduledFault f;
      f.kind = noc::ScheduledFault::Kind::kTile;
      f.tile = 1;
      f.start_cycle = 50 * scenarios[v].config.cycles_per_timestep;
      faults.scheduled.push_back(f);
    }
    if (v % 2 == 1) {
      scenarios[v].config.retry.enabled = true;
      scenarios[v].config.retry.max_retries = 4;
    }
  }
  return scenarios;
}

TEST(Determinism, FaultedBatchCoSimSerialAndParallelMatchBitForBit) {
  expect_same_cosim_results(run_cosim_batch(1, batch_faulted_scenarios()),
                            run_cosim_batch(4, batch_faulted_scenarios()));
}

/// The faulted batch with full observability on: every scenario traces into
/// a small ring (forcing eviction) and runs the congestion monitor.
std::vector<CoSimCase> batch_observed_scenarios() {
  std::vector<CoSimCase> scenarios = batch_faulted_scenarios();
  for (CoSimCase& sc : scenarios) {
    sc.config.noc.trace.enabled = true;
    sc.config.noc.trace.ring_capacity = 256;
    sc.config.noc.monitor.enabled = true;
    sc.config.noc.monitor.hot_occupancy = 0.01;
    sc.config.noc.monitor.persistence_windows = 2;
  }
  return scenarios;
}

TEST(Determinism, ObservedBatchCoSimSerialAndParallelMatchBitForBit) {
  const auto a = run_cosim_batch(1, batch_observed_scenarios());
  const auto b = run_cosim_batch(4, batch_observed_scenarios());
  expect_same_cosim_results(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Tracing was on: something recorded, and the full streams match even
    // though the 256-entry ring evicted most of them.
    EXPECT_GT(a[i].result.trace_recorded, 0u) << i;
    EXPECT_EQ(a[i].result.trace, b[i].result.trace) << i;
    ASSERT_TRUE(a[i].result.fidelity.congestion.monitored) << i;
  }
}

TEST(Determinism, ObservabilityDoesNotPerturbTheCoSim) {
  // Trace + monitor on must leave the simulation itself bit-identical.
  const auto plain = run_cosim_batch(2, batch_faulted_scenarios());
  const auto observed = run_cosim_batch(2, batch_observed_scenarios());
  ASSERT_EQ(plain.size(), observed.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].result.snn.spikes, observed[i].result.snn.spikes) << i;
    EXPECT_EQ(plain[i].result.fidelity.copies_accepted,
              observed[i].result.fidelity.copies_accepted)
        << i;
    EXPECT_EQ(plain[i].result.noc.global_energy_pj,
              observed[i].result.noc.global_energy_pj)
        << i;
    EXPECT_EQ(plain[i].result.resilience.noc_faults.flits_dropped,
              observed[i].result.resilience.noc_faults.flits_dropped)
        << i;
  }
}

TEST(Determinism, FaultedBatchCoSimIndependentOfSubmissionOrder) {
  auto reversed_scenarios = batch_faulted_scenarios();
  std::reverse(reversed_scenarios.begin(), reversed_scenarios.end());
  const auto forward = run_cosim_batch(4, batch_faulted_scenarios());
  auto backward = run_cosim_batch(4, std::move(reversed_scenarios));
  std::reverse(backward.begin(), backward.end());
  expect_same_cosim_results(forward, backward);
}

TEST(Determinism, FaultSweepMatchesStandaloneRuns) {
  // Each FaultConfig overlays the base scenario; every slot must be
  // bit-identical to a standalone run with the same overlay, and the
  // all-default entry is the fault-free baseline.
  const CoSimCase base = std::move(batch_cosim_scenarios()[0]);

  std::vector<noc::FaultConfig> sweep(3);
  sweep[1].seed = 11;
  sweep[1].flit_drop_probability = 0.15;
  sweep[2].seed = 11;
  sweep[2].link_fault_rate = 0.4;
  sweep[2].transient_link_rate = 0.4;
  sweep[2].transient_duration_cycles = 128;

  std::vector<CoSimCase> cases(sweep.size(), base);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    cases[i].config.noc.faults = sweep[i];
  }
  const auto results = run_cosim_batch(4, std::move(cases));
  ASSERT_EQ(results.size(), sweep.size());
  EXPECT_FALSE(results[0].result.resilience.any());
  EXPECT_GT(results[1].result.resilience.noc_faults.flits_dropped, 0u);

  for (std::size_t i = 0; i < sweep.size(); ++i) {
    CoSimCase sc = base;
    sc.config.noc.faults = sweep[i];
    snn::Network net = sc.build();
    cosim::CoSimulator sim(net, sc.partition, sc.placement,
                           std::move(sc.topology), sc.config);
    const auto standalone = sim.run();
    EXPECT_EQ(results[i].result.snn.spikes, standalone.snn.spikes) << i;
    EXPECT_EQ(results[i].result.resilience.noc_faults.flits_dropped,
              standalone.resilience.noc_faults.flits_dropped)
        << i;
    EXPECT_EQ(results[i].result.resilience.noc_faults.copies_lost(),
              standalone.resilience.noc_faults.copies_lost())
        << i;
    EXPECT_EQ(results[i].result.fidelity.fabric_energy_pj,
              standalone.fidelity.fabric_energy_pj)
        << i;
  }
}

TEST(Determinism, PsoThreadCountZeroMatchesExplicitCounts) {
  const auto graph = workload();
  PsoConfig config;
  config.swarm_size = 8;
  config.iterations = 5;
  config.seed = 21;

  config.threads = 0;  // auto-resolve to hardware_concurrency()
  const auto auto_resolved =
      PsoPartitioner(graph, arch_6x10(), config).optimize();
  config.threads = 3;
  const auto explicit_three =
      PsoPartitioner(graph, arch_6x10(), config).optimize();

  EXPECT_EQ(auto_resolved.best, explicit_three.best);
  EXPECT_EQ(auto_resolved.best_cost, explicit_three.best_cost);
}

}  // namespace
}  // namespace snnmap::core
