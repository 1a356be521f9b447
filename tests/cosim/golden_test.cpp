// Golden digests of the congested closed loop: every configuration that
// sends copies down the late path (deadline misses, receive drops, DVFS
// stretch, AER retransmits, a mid-run remap with copies in flight) is run
// on a four-crossbar mapping whose cut records interleave destination
// tiles, and its spike event log, FidelityReport counters and
// ResilienceReport fields are hashed and compared against digests captured
// from the reference implementation.  A refactor of the delivery-to-synapse
// conversion must leave every digest unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "../snn/golden_scenarios.hpp"
#include "core/partition.hpp"
#include "core/placement.hpp"
#include "cosim/cosim.hpp"
#include "cosim/fidelity.hpp"
#include "hw/architecture.hpp"
#include "noc/faults.hpp"
#include "noc/topology.hpp"
#include "snn/network.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "test_mappings.hpp"

namespace snnmap::cosim {
namespace {

/// Order-sensitive fold of 64-bit words through util::mix64.
class Digest {
 public:
  void mix(std::uint64_t v) noexcept {
    h_ = util::mix64(h_ ^ (v + 0x9E3779B97F4A7C15ULL));
  }
  void mix(double v) noexcept { mix(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0;
};

struct Digests {
  std::uint64_t spikes;
  std::uint64_t fidelity;
  std::uint64_t resilience;
};

Digests digest_of(const CoSimResult& r) {
  Digest spikes;
  spikes.mix(static_cast<std::uint64_t>(r.snn.spikes.size()));
  for (std::size_t i = 0; i < r.snn.spikes.size(); ++i) {
    for (const double t : r.snn.spikes[i]) {
      spikes.mix(static_cast<std::uint64_t>(i));
      spikes.mix(t);
    }
  }
  spikes.mix(r.snn.total_spikes);

  const FidelityReport& f = r.fidelity;
  Digest fid;
  for (const std::uint64_t v :
       {f.steps, f.total_spikes, f.packets_offered, f.copies_offered,
        f.copies_arrived, f.copies_accepted, f.receive_drops, f.undelivered,
        f.deadline_misses}) {
    fid.mix(v);
  }
  for (const std::uint32_t m : f.per_step_misses) fid.mix(std::uint64_t{m});

  const ResilienceReport& rs = r.resilience;
  const noc::FaultStats& nf = rs.noc_faults;
  Digest res;
  for (const std::uint64_t v :
       {nf.link_faults, nf.router_faults, nf.tile_faults, nf.links_restored,
        nf.reroutes, nf.flits_dropped, nf.copies_dropped, nf.copies_killed,
        nf.copies_unroutable, nf.copies_blocked_at_source,
        nf.packets_blocked, nf.copies_stranded, rs.retransmit_packets,
        rs.retransmit_copies, rs.retry_recoveries, rs.spikes_lost_timeout,
        rs.stale_arrivals, rs.duplicate_arrivals, rs.pending_at_end,
        std::uint64_t{rs.remap_events}, std::uint64_t{rs.neurons_migrated},
        std::uint64_t{rs.neurons_stranded}}) {
    res.mix(v);
  }
  res.mix(rs.retransmit_energy_pj);
  return {spikes.value(), fid.value(), res.value()};
}

constexpr std::uint32_t kCrossbars = 4;
constexpr std::uint32_t kPerPopulation = 16;

/// A Poisson input and three recurrent LIF populations (in -> a -> b -> c,
/// c -| a, a -> c) with multi-step delays.
snn::Network golden_network() {
  snn::Network net;
  util::Rng rng(23);
  const auto in = net.add_poisson_group("in", kPerPopulation, 80.0);
  const auto a = net.add_lif_group("a", kPerPopulation);
  const auto b = net.add_lif_group("b", kPerPopulation);
  const auto c = net.add_lif_group("c", kPerPopulation);
  net.connect_random(in, a, 0.6, snn::WeightSpec::uniform(9.0, 14.0), rng);
  net.connect_random(a, b, 0.5, snn::WeightSpec::uniform(8.0, 12.0), rng,
                     /*delay=*/2);
  net.connect_random(b, c, 0.5, snn::WeightSpec::uniform(8.0, 12.0), rng,
                     /*delay=*/2);
  net.connect_random(c, a, 0.3, snn::WeightSpec::uniform(-4.0, -2.0), rng,
                     /*delay=*/3);
  net.connect_random(a, c, 0.3, snn::WeightSpec::uniform(4.0, 8.0), rng,
                     /*delay=*/1);
  return net;
}

/// Neuron i on crossbar i % 4: every neuron's cut records interleave
/// several destination tiles in fan-out order.
core::Partition round_robin_partition(const snn::Network& net) {
  core::Partition partition(net.neuron_count(), kCrossbars);
  for (snn::NeuronId i = 0; i < net.neuron_count(); ++i) {
    partition.assign(i, i % kCrossbars);
  }
  return partition;
}

CoSimConfig golden_config(std::uint32_t cpt) {
  CoSimConfig config;
  config.snn.duration_ms = 300.0;
  config.snn.seed = 41;
  config.cycles_per_timestep = cpt;
  return config;
}

hw::Architecture remap_arch() {
  hw::Architecture arch;
  arch.crossbar_count = kCrossbars;
  arch.neurons_per_crossbar = 22;  // 3 x 6 slots of slack for 16 evacuees
  arch.interconnect = hw::InterconnectKind::kMesh;
  return arch;
}

CoSimResult run_golden(const CoSimConfig& config) {
  snn::Network net = golden_network();
  const core::Partition partition = round_robin_partition(net);
  noc::Topology topology = noc::Topology::mesh(2, 2);
  const core::Placement placement =
      core::identity_placement(kCrossbars, topology);
  CoSimulator sim(net, partition, placement, std::move(topology), config);
  return sim.run();
}

void expect_digests(const CoSimResult& r, const Digests& want) {
  const Digests got = digest_of(r);
  EXPECT_EQ(got.spikes, want.spikes);
  EXPECT_EQ(got.fidelity, want.fidelity);
  EXPECT_EQ(got.resilience, want.resilience);
}

TEST(CoSimGolden, CongestedBudget) {
  const CoSimResult r = run_golden(golden_config(6));
  EXPECT_GT(r.fidelity.deadline_misses, 0u);
  expect_digests(r, {3919895098043598560ULL, 5923534796069893236ULL,
                     5627711720749599179ULL});
}

TEST(CoSimGolden, BoundedReceiveQueueWithJitter) {
  CoSimConfig config = golden_config(10);
  config.receive_queue_depth = 4;
  config.injection_jitter_cycles = 5;
  const CoSimResult r = run_golden(config);
  EXPECT_GT(r.fidelity.deadline_misses, 0u);
  EXPECT_GT(r.fidelity.receive_drops, 0u);
  expect_digests(r, {18308591336505753350ULL, 11197444491259599516ULL,
                     2747839466378627164ULL});
}

TEST(CoSimGolden, DvfsDeadlineSlack) {
  CoSimConfig config = golden_config(32);
  config.dvfs.kind = DvfsPolicyKind::kDeadlineSlack;
  config.dvfs.min_scale = 0.125;
  const CoSimResult r = run_golden(config);
  EXPECT_GT(r.fidelity.deadline_misses, 0u);
  EXPECT_LT(r.fidelity.freq_scale.mean(), 1.0);
  expect_digests(r, {12884701648945263372ULL, 8651974933261667019ULL,
                     2747839466378627164ULL});
}

TEST(CoSimGolden, AerRetryUnderFlitDrops) {
  CoSimConfig config = golden_config(16);
  config.noc.faults.seed = 7;
  config.noc.faults.flit_drop_probability = 0.1;
  config.retry.enabled = true;
  config.retry.max_retries = 4;
  config.retry.timeout_windows = 10;
  const CoSimResult r = run_golden(config);
  EXPECT_GT(r.resilience.noc_faults.flits_dropped, 0u);
  EXPECT_GT(r.resilience.retry_recoveries, 0u);
  EXPECT_GT(r.fidelity.deadline_misses, 0u);
  expect_digests(r, {1742415715003547015ULL, 14562792206259889500ULL,
                     11523909967562154374ULL});
}

TEST(CoSimGolden, RemapOnTileFaultWithLateCopiesInFlight) {
  constexpr std::uint32_t kCpt = 6;
  constexpr std::uint64_t kFaultStep = 100;
  CoSimConfig config = golden_config(kCpt);
  noc::ScheduledFault fault;
  fault.kind = noc::ScheduledFault::Kind::kTile;
  fault.tile = 1;
  fault.start_cycle = kFaultStep * kCpt + kCpt / 2;
  config.noc.faults.scheduled.push_back(fault);
  config.failure_remap.enabled = true;
  config.failure_remap.arch = remap_arch();
  const CoSimResult r = run_golden(config);
  EXPECT_EQ(r.resilience.remap_events, 1u);
  EXPECT_EQ(r.resilience.neurons_migrated, kPerPopulation);
  // The remap closes the fault's window; copies emitted in that window
  // that miss it are still in flight when the transport tables are
  // rebuilt, and land on the late path under the new mapping.
  EXPECT_GT(r.fidelity.per_step_misses[kFaultStep], 0u);
  const auto& misses = r.fidelity.per_step_misses;
  EXPECT_GT(std::accumulate(misses.begin() + kFaultStep + 1, misses.end(),
                            std::uint64_t{0}),
            0u);
  expect_digests(r, {11050020897373753630ULL, 13618359036558718372ULL,
                     4738176584847948711ULL});
}

TEST(CoSimGolden, LiveStdpUnderCongestion) {
  // The golden network with its input projection plastic and STDP live,
  // on a plastic-safe mapping (in + a share a crossbar, b and c each get
  // one) with a budget too small for the fabric: late copies inject on the
  // late path while the local plastic synapses keep learning.  Pins the
  // spike log, the final weights and the fidelity counters.
  snn::Network net = golden_network();
  for (snn::Synapse& s : net.mutable_synapses()) {
    s.plastic = s.pre < kPerPopulation;  // in -> a
  }
  const core::Partition partition = test::plastic_safe_partition(net);
  noc::Topology topology = noc::Topology::tree(partition.crossbar_count(), 4);
  const core::Placement placement =
      core::identity_placement(partition.crossbar_count(), topology);
  CoSimConfig config = golden_config(3);
  config.snn.enable_stdp = true;
  config.snn.stdp.w_max = 16.0;
  CoSimulator sim(net, partition, placement, std::move(topology), config);
  const CoSimResult r = sim.run();
  EXPECT_EQ(partition.crossbar_count(), 3u);
  EXPECT_GT(r.fidelity.deadline_misses, 0u);
  const snn::golden::Digest snn_digest = snn::golden::digest_of(net, r.snn);
  // STDP really ran: the final weights differ from the wired ones.
  EXPECT_NE(snn_digest.weights_hash,
            snn::golden::digest_of(golden_network(), r.snn).weights_hash);
  EXPECT_EQ(snn_digest.spikes_hash, 17638028561455569237ULL);
  EXPECT_EQ(snn_digest.weights_hash, 13171569570475714424ULL);
  EXPECT_EQ(digest_of(r).fidelity, 14417215451252735681ULL);
}

}  // namespace
}  // namespace snnmap::cosim
