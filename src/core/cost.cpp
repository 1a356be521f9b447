#include "core/cost.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <vector>

namespace snnmap::core {

CostModel::CostModel(const snn::SnnGraph& graph) : graph_(graph) {
  edges_.reserve(graph.edge_count());
  for (const auto& e : graph.edges()) {
    const std::uint64_t spikes = graph.spike_count(e.pre);
    edges_.push_back({e.pre, e.post, spikes});
    total_events_ += spikes;
  }
  // Undirected incidence CSR for O(degree) incident-spike tallies.
  const std::uint32_t n = graph.neuron_count();
  adj_offsets_.assign(n + 1, 0);
  for (const auto& e : edges_) {
    if (e.pre == e.post) continue;  // self-loops never cross a boundary
    ++adj_offsets_[e.pre + 1];
    ++adj_offsets_[e.post + 1];
  }
  for (std::size_t i = 1; i < adj_offsets_.size(); ++i) {
    adj_offsets_[i] += adj_offsets_[i - 1];
  }
  adj_other_.resize(adj_offsets_.back());
  adj_spikes_.resize(adj_offsets_.back());
  std::vector<std::uint32_t> cursor(adj_offsets_.begin(),
                                    adj_offsets_.end() - 1);
  for (const auto& e : edges_) {
    if (e.pre == e.post) continue;
    adj_other_[cursor[e.pre]] = e.post;
    adj_spikes_[cursor[e.pre]++] = e.spikes;
    adj_other_[cursor[e.post]] = e.pre;
    adj_spikes_[cursor[e.post]++] = e.spikes;
  }
}

std::uint64_t CostModel::global_spike_count(const Partition& partition) const {
  return global_spike_count(partition.assignment());
}

std::uint64_t CostModel::global_spike_count(
    const std::vector<CrossbarId>& assignment) const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) {
    if (assignment[e.pre] != assignment[e.post]) total += e.spikes;
  }
  return total;
}

void CostModel::tally_incident_spikes(
    const std::vector<CrossbarId>& assignment, std::uint32_t neuron,
    std::vector<std::uint64_t>& spikes_on) const {
  for (std::uint32_t k = adj_offsets_[neuron]; k < adj_offsets_[neuron + 1];
       ++k) {
    const CrossbarId other = assignment[adj_other_[k]];
    if (other != kUnassigned) spikes_on[other] += adj_spikes_[k];
  }
}

std::uint64_t CostModel::spikes_between(const Partition& partition,
                                        CrossbarId k1, CrossbarId k2) const {
  if (k1 == k2) return 0;  // Eq. 7: zero for k1 == k2
  const auto& part = partition.assignment();
  std::uint64_t total = 0;
  for (const auto& e : edges_) {
    if (part[e.pre] == k1 && part[e.post] == k2) total += e.spikes;
  }
  return total;
}

std::uint64_t CostModel::multicast_packet_count(
    const Partition& partition) const {
  return multicast_packet_count(partition.assignment());
}

std::uint64_t CostModel::multicast_packet_count(
    const std::vector<CrossbarId>& assignment) const {
  const auto& offsets = graph_.fanout_offsets();
  const auto& targets = graph_.fanout_targets();
  CrossbarId max_c = 0;
  for (const CrossbarId c : assignment) {
    if (c != kUnassigned && c > max_c) max_c = c;
  }
  // seen[c] == i + 1 once neuron i's fan-out has counted crossbar c.
  std::vector<std::uint32_t> seen(static_cast<std::size_t>(max_c) + 1, 0);
  std::uint64_t packets = 0;
  for (std::uint32_t i = 0; i < graph_.neuron_count(); ++i) {
    const std::uint64_t spikes = graph_.spike_count(i);
    if (spikes == 0) continue;
    // Marking the own crossbar first makes it count as already seen, so
    // the fanout loop counts each remote crossbar once without a branch.
    const std::uint32_t mark = i + 1;
    const CrossbarId own = assignment[i];
    if (own != kUnassigned) seen[own] = mark;
    std::uint64_t remotes = 0;
    for (std::uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const CrossbarId c = assignment[targets[k]];
      if (c == kUnassigned) continue;
      remotes += seen[c] != mark;
      seen[c] = mark;
    }
    packets += spikes * remotes;
  }
  return packets;
}

std::uint64_t CostModel::objective_cost(
    const std::vector<CrossbarId>& assignment, Objective objective) const {
  switch (objective) {
    case Objective::kAerPackets: return multicast_packet_count(assignment);
    case Objective::kCutSpikes: return global_spike_count(assignment);
  }
  return 0;
}

const char* to_string(Objective objective) noexcept {
  switch (objective) {
    case Objective::kAerPackets: return "aer-packets";
    case Objective::kCutSpikes: return "cut-spikes";
  }
  return "?";
}

std::uint64_t CostModel::local_event_count(const Partition& partition) const {
  const auto& part = partition.assignment();
  std::uint64_t total = 0;
  for (const auto& e : edges_) {
    if (part[e.pre] == part[e.post]) total += e.spikes;
  }
  return total;
}

double CostModel::analytic_global_energy_pj(
    const Partition& partition, const noc::Topology& topology,
    const std::vector<noc::TileId>& placement, const hw::EnergyModel& energy,
    bool multicast) const {
  if (placement.size() != partition.crossbar_count()) {
    throw std::invalid_argument("CostModel: placement size mismatch");
  }
  const auto& part = partition.assignment();
  const auto& offsets = graph_.fanout_offsets();
  const auto& targets = graph_.fanout_targets();
  double total_pj = 0.0;
  // The per-spike energy below is an FP sum, so its addition order must be
  // a pure function of graph + partition — never of hash-table layout.
  // Remote destination sets therefore materialize sorted: the former
  // unordered_set was cleared (not destroyed) between neurons, and since
  // clear() keeps the grown bucket count, a big-fanout neuron earlier in
  // the walk could reshuffle a later neuron's iteration order and shift
  // its contribution by a ULP — one neuron's energy depended on another's
  // fanout size (CostModel.AnalyticEnergyIgnoresFanoutOrder pins the
  // per-neuron additivity that rules this out).
  std::vector<CrossbarId> remote;
  for (std::uint32_t i = 0; i < graph_.neuron_count(); ++i) {
    const std::uint64_t spikes = graph_.spike_count(i);
    if (spikes == 0) continue;
    remote.clear();
    for (std::uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const CrossbarId c = part[targets[k]];
      if (c != part[i]) remote.push_back(c);
    }
    if (remote.empty()) continue;
    std::sort(remote.begin(), remote.end());
    remote.erase(std::unique(remote.begin(), remote.end()), remote.end());
    const noc::TileId src_tile = placement[part[i]];
    if (multicast) {
      // A multicast packet shares path prefixes: the union of the
      // per-destination routed paths is the multicast tree the simulator's
      // range-fork engine walks.  Charge exactly what the cycle-accurate
      // engine charges — per tree edge, one link traversal plus one switch
      // traversal at the upstream router that forwarded the flit; per
      // destination, one ejection switch traversal plus the decode; plus
      // the single encode at the source.  (Charging one router_flit_pj per
      // *distinct* router instead double-counted fork routers relative to
      // shared-prefix links and under-counted multi-destination ejections —
      // the analytic/simulated parity test pins the agreement now.)
      // snnmap-lint: allow(unordered-iteration) -- membership-only dedup
      // (insert().second); never iterated, so order cannot leak.
      std::unordered_set<std::uint64_t> charged_links;
      double per_spike = energy.aer_codec_pj;  // encode at source
      for (const CrossbarId c : remote) {
        const noc::TileId dst_tile = placement[c];
        noc::RouterId r = topology.router_of_tile(src_tile);
        const noc::RouterId dst_router = topology.router_of_tile(dst_tile);
        while (r != dst_router) {
          const noc::PortId p = topology.next_port(r, dst_router);
          const noc::RouterId nb = topology.neighbor(r, p);
          const std::uint64_t link =
              (static_cast<std::uint64_t>(r) << 32) | nb;
          if (charged_links.insert(link).second) {
            // Off-chip tree edges carry the distinct inter-chip energy,
            // exactly as the simulator's per-traversal counters do.
            per_spike += (topology.link_is_offchip(r, p)
                              ? energy.offchip_link_hop_pj
                              : energy.link_hop_pj) +
                         energy.router_flit_pj;
          }
          r = nb;
        }
        // Decode at the destination; its router ejects through the local
        // port (one switch traversal per delivered copy).
        per_spike += energy.router_flit_pj + energy.aer_codec_pj;
      }
      total_pj += per_spike * static_cast<double>(spikes);
    } else if (topology.chip_count() == 1) {
      // Single chip: every hop costs the same, so the closed-form
      // per-distance price needs no path walk.
      for (const CrossbarId c : remote) {
        const std::uint32_t hops =
            topology.hop_distance(src_tile, placement[c]);
        total_pj += (energy.packet_energy_pj(hops) + energy.aer_codec_pj) *
                    static_cast<double>(spikes);
      }
    } else {
      // Multi-chip unicast: walk the routed path so chip-boundary hops
      // charge offchip_link_hop_pj instead of link_hop_pj.
      for (const CrossbarId c : remote) {
        noc::RouterId r = topology.router_of_tile(src_tile);
        const noc::RouterId dst_router =
            topology.router_of_tile(placement[c]);
        double per_copy = 2.0 * energy.aer_codec_pj + energy.router_flit_pj;
        while (r != dst_router) {
          const noc::PortId p = topology.next_port(r, dst_router);
          per_copy += (topology.link_is_offchip(r, p)
                           ? energy.offchip_link_hop_pj
                           : energy.link_hop_pj) +
                      energy.router_flit_pj;
          r = topology.neighbor(r, p);
        }
        total_pj += per_copy * static_cast<double>(spikes);
      }
    }
  }
  return total_pj;
}

double CostModel::local_energy_pj(const Partition& partition,
                                  const hw::EnergyModel& energy) const {
  return static_cast<double>(local_event_count(partition)) *
         energy.crossbar_event_pj;
}

std::vector<std::uint64_t> CostModel::traffic_matrix(
    const Partition& partition) const {
  const std::uint32_t c = partition.crossbar_count();
  std::vector<std::uint64_t> matrix(static_cast<std::size_t>(c) * c, 0);
  const auto& part = partition.assignment();
  for (const auto& e : edges_) {
    const CrossbarId a = part[e.pre];
    const CrossbarId b = part[e.post];
    if (a != b) matrix[static_cast<std::size_t>(a) * c + b] += e.spikes;
  }
  return matrix;
}

}  // namespace snnmap::core
