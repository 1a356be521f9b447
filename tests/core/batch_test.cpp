#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

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

// CostModel is immutable, so the optimizers' worker pools share one model
// read-only.  Any hidden per-call state would race here (the TSan leg runs
// this suite) or leak between calls and change a later candidate's cost.
TEST(BatchCostModel, SharedModelMatchesSerialCalls) {
  const auto graph = random_graph(40, 200, 11);
  const CostModel shared(graph);
  const CostModel serial(graph);
  const auto batch = random_assignments(40, 5, 33, 12);

  for (const auto objective :
       {Objective::kAerPackets, Objective::kCutSpikes}) {
    const auto costs =
        util::ThreadPool(4).map(batch.size(), [&](std::size_t i) {
          return shared.objective_cost(batch[i], objective);
        });
    ASSERT_EQ(costs.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(costs[i], serial.objective_cost(batch[i], objective))
          << "candidate " << i << " objective " << to_string(objective);
    }
  }
}

TEST(BatchCostModel, CostsIndependentOfCallOrder) {
  // Candidates with different largest crossbar ids, scored forwards and
  // backwards on one model: a call must not see what an earlier call left.
  const auto graph = random_graph(30, 120, 21);
  const CostModel model(graph);
  auto batch = random_assignments(30, 4, 32, 22);
  const auto wide = random_assignments(30, 9, 32, 23);
  batch.insert(batch.end(), wide.begin(), wide.end());

  std::vector<std::uint64_t> forwards(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    forwards[i] = model.objective_cost(batch[i], Objective::kAerPackets);
  }
  std::vector<std::uint64_t> backwards(batch.size());
  for (std::size_t i = batch.size(); i-- > 0;) {
    backwards[i] = model.objective_cost(batch[i], Objective::kAerPackets);
  }
  EXPECT_EQ(forwards, backwards);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(forwards[i], CostModel(graph).objective_cost(
                               batch[i], Objective::kAerPackets))
        << "candidate " << i;
  }
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

}  // namespace
}  // namespace snnmap::core
