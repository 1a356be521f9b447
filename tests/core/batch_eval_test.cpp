#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/batch_eval.hpp"
#include "core/cost.hpp"
#include "noc/simulator.hpp"
#include "snn/graph.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace snnmap::core {
namespace {

/// Random sparse graph with varied spike counts (cost structure exercised
/// beyond the trivial all-equal case).
snn::SnnGraph random_graph(std::uint32_t neurons, std::uint32_t edges,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<snn::GraphEdge> graph_edges;
  graph_edges.reserve(edges);
  for (std::uint32_t e = 0; e < edges; ++e) {
    const auto pre = static_cast<std::uint32_t>(rng.below(neurons));
    auto post = static_cast<std::uint32_t>(rng.below(neurons));
    if (post == pre) post = (post + 1) % neurons;
    graph_edges.push_back({pre, post, 1.0F});
  }
  std::vector<snn::SpikeTrain> trains;
  trains.reserve(neurons);
  for (std::uint32_t i = 0; i < neurons; ++i) {
    snn::SpikeTrain train;
    const auto spikes = rng.below(6);
    for (std::uint64_t s = 0; s < spikes; ++s) {
      train.push_back(static_cast<double>(s) + 0.5);
    }
    trains.push_back(std::move(train));
  }
  return snn::SnnGraph::from_parts(neurons, std::move(graph_edges),
                                   std::move(trains), 10.0);
}

std::vector<std::vector<CrossbarId>> random_assignments(
    std::uint32_t neurons, std::uint32_t crossbars, std::size_t count,
    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<CrossbarId>> out(count);
  for (auto& assignment : out) {
    assignment.resize(neurons);
    for (auto& k : assignment) {
      k = static_cast<CrossbarId>(rng.below(crossbars));
    }
  }
  return out;
}

TEST(BatchEvaluator, MatchesSerialCostModel) {
  const auto graph = random_graph(40, 200, 11);
  const CostModel serial(graph);
  BatchEvaluator evaluator(graph, 4);
  const auto batch = random_assignments(40, 5, 33, 12);

  std::vector<std::uint64_t> costs;
  for (const auto objective :
       {Objective::kAerPackets, Objective::kCutSpikes}) {
    evaluator.evaluate(batch, objective, costs);
    ASSERT_EQ(costs.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(costs[i], serial.objective_cost(batch[i], objective))
          << "candidate " << i << " objective " << to_string(objective);
    }
  }
}

TEST(BatchEvaluator, RepeatedRunsAreBitIdentical) {
  const auto graph = random_graph(30, 120, 21);
  BatchEvaluator parallel(graph, 4);
  BatchEvaluator serial(graph, 1);
  const auto batch = random_assignments(30, 4, 64, 22);

  std::vector<std::uint64_t> a, b, c;
  parallel.evaluate(batch, Objective::kAerPackets, a);
  parallel.evaluate(batch, Objective::kAerPackets, b);
  serial.evaluate(batch, Objective::kAerPackets, c);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(BatchEvaluator, ForEachMatchesEvaluate) {
  const auto graph = random_graph(25, 80, 31);
  BatchEvaluator evaluator(graph, 3);
  const auto batch = random_assignments(25, 4, 17, 32);

  std::vector<std::uint64_t> via_evaluate;
  evaluator.evaluate(batch, Objective::kAerPackets, via_evaluate);
  std::vector<std::uint64_t> via_for_each(batch.size());
  std::vector<std::uint32_t> worker_of(batch.size());
  evaluator.for_each(batch.size(), [&](std::uint32_t worker, std::size_t i) {
    worker_of[i] = worker;
    via_for_each[i] = evaluator.model(worker).objective_cost(
        batch[i], Objective::kAerPackets);
  });
  EXPECT_EQ(via_evaluate, via_for_each);
  // 17 candidates over 3 workers: contiguous blocks, every worker used.
  EXPECT_TRUE(std::is_sorted(worker_of.begin(), worker_of.end()));
  EXPECT_EQ(worker_of.front(), 0u);
  EXPECT_EQ(worker_of.back(), 2u);
}

TEST(BatchEvaluator, EmptyBatchYieldsEmptyCosts) {
  const auto graph = random_graph(10, 20, 41);
  BatchEvaluator evaluator(graph, 2);
  std::vector<std::uint64_t> costs{1, 2, 3};
  evaluator.evaluate({}, Objective::kAerPackets, costs);
  EXPECT_TRUE(costs.empty());
}

TEST(BatchEvaluator, ExposesWorkerLocalModels) {
  const auto graph = random_graph(10, 20, 51);
  BatchEvaluator evaluator(graph, 2);
  EXPECT_EQ(evaluator.thread_count(), 2u);
  const auto batch = random_assignments(10, 3, 1, 52);
  EXPECT_EQ(evaluator.model(0).objective_cost(batch[0], Objective::kCutSpikes),
            evaluator.model(1).objective_cost(batch[0],
                                              Objective::kCutSpikes));
}

TEST(BatchEvaluator, ZeroThreadsResolvesToHardwareConcurrency) {
  const auto graph = random_graph(10, 20, 61);
  BatchEvaluator evaluator(graph, 0);
  EXPECT_GE(evaluator.thread_count(), 1u);
}

/// One independent NoC run of a fanned-out batch.
struct NocRun {
  noc::Topology topology;
  noc::NocConfig config;
  std::vector<noc::SpikePacketEvent> traffic;
};

/// A small deterministic all-to-all batch over mixed topologies.
std::vector<NocRun> noc_runs() {
  std::vector<NocRun> runs;
  const auto traffic = [](std::uint64_t seed, std::uint32_t tiles) {
    util::Rng rng(seed);
    std::vector<noc::SpikePacketEvent> t;
    for (int i = 0; i < 400; ++i) {
      noc::SpikePacketEvent ev;
      ev.emit_cycle = static_cast<std::uint64_t>(i / 4);
      ev.emit_step = ev.emit_cycle / 8;
      ev.source_neuron = static_cast<std::uint32_t>(rng.below(64));
      ev.source_tile = static_cast<noc::TileId>(rng.below(tiles));
      const auto dest = static_cast<noc::TileId>(rng.below(tiles));
      if (dest == ev.source_tile) continue;
      ev.dest_tiles = {dest};
      t.push_back(std::move(ev));
    }
    return t;
  };
  runs.push_back({noc::Topology::mesh(3, 3), noc::NocConfig{},
                  traffic(11, 9)});
  runs.push_back({noc::Topology::tree(8, 4), noc::NocConfig{},
                  traffic(22, 8)});
  noc::NocConfig shallow;
  shallow.buffer_depth = 1;
  // A shallow ring under this load wedges on its cyclic channel dependency;
  // keep the guard small so the batch exercises the drained=false path
  // without simulating millions of stalled cycles.
  shallow.max_cycles = 20'000;
  runs.push_back({noc::Topology::ring(6), shallow, traffic(33, 6)});
  return runs;
}

/// Simulates every run on `threads` workers; results[i] is runs[i]'s.
std::vector<noc::NocRunResult> simulate(std::uint32_t threads,
                                        std::vector<NocRun> runs) {
  return util::ThreadPool(threads).map(runs.size(), [&runs](std::size_t i) {
    return noc::NocSimulator(std::move(runs[i].topology), runs[i].config)
        .run(std::move(runs[i].traffic));
  });
}

TEST(BatchNoc, ParallelMatchesSerialBitForBit) {
  auto serial_results = simulate(1, noc_runs());
  auto parallel_results = simulate(4, noc_runs());
  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    const auto& s = serial_results[i];
    const auto& p = parallel_results[i];
    EXPECT_EQ(s.stats.copies_delivered, p.stats.copies_delivered);
    EXPECT_EQ(s.stats.duration_cycles, p.stats.duration_cycles);
    EXPECT_EQ(s.stats.link_hops, p.stats.link_hops);
    EXPECT_DOUBLE_EQ(s.stats.global_energy_pj, p.stats.global_energy_pj);
    EXPECT_EQ(s.stats.link_flits, p.stats.link_flits);
    EXPECT_DOUBLE_EQ(s.snn.isi_distortion_avg_cycles,
                     p.snn.isi_distortion_avg_cycles);
    ASSERT_EQ(s.delivered.size(), p.delivered.size());
    for (std::size_t k = 0; k < s.delivered.size(); ++k) {
      EXPECT_EQ(s.delivered[k].dest_tile, p.delivered[k].dest_tile);
      EXPECT_EQ(s.delivered[k].recv_cycle, p.delivered[k].recv_cycle);
      EXPECT_EQ(s.delivered[k].sequence, p.delivered[k].sequence);
    }
  }
}

TEST(BatchNoc, EmptyBatchAndZeroThreadsAreFine) {
  EXPECT_TRUE(simulate(0, {}).empty());
}

TEST(BatchEvaluator, ClampsPoolToMaxParallelism) {
  const auto graph = random_graph(10, 20, 71);
  BatchEvaluator evaluator(graph, 8, 3);
  EXPECT_EQ(evaluator.thread_count(), 3u);
  // max_parallelism is a sizing hint, not a hard limit: a larger batch is
  // still evaluated correctly, just with fewer workers.
  const CostModel serial(graph);
  const auto batch = random_assignments(10, 3, 10, 72);
  std::vector<std::uint64_t> costs;
  evaluator.evaluate(batch, Objective::kAerPackets, costs);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(costs[i], serial.objective_cost(batch[i],
                                              Objective::kAerPackets));
  }
}

}  // namespace
}  // namespace snnmap::core
