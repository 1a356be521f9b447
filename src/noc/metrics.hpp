// Interconnect metrics, including the two SNN-specific metrics the paper
// introduces (Sec. II):
//
//  * Spike disorder count — fraction of delivered spikes that arrive at a
//    destination after a spike that was emitted later ("crossbar with B is
//    arbitrated to occupy the interconnect prior to crossbar with A").
//  * Inter-spike-interval (ISI) distortion — per (source neuron, destination)
//    stream, the difference between consecutive emission intervals and the
//    corresponding arrival intervals, caused by congestion delaying some
//    packets more than others.  Table II reports the average; Sec. III also
//    defines the maximum — both are computed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "hw/energy_model.hpp"
#include "noc/topology.hpp"
#include "util/stats.hpp"

namespace snnmap::noc {

/// One delivered spike copy, as observed by the destination decoder.
struct DeliveredSpike {
  std::uint32_t source_neuron = 0;
  TileId source_tile = 0;
  TileId dest_tile = 0;
  std::uint32_t sequence = 0;    ///< per-source-neuron emission counter
  std::uint64_t emit_cycle = 0;  ///< cycle the encoder transmitted the packet
  /// SNN timestep (ms index) of the spike.  Disorder is judged on this, not
  /// on emit_cycle: spikes of the same 1 ms step have no defined order (the
  /// encoder serializes them arbitrarily), so only cross-step overtaking is
  /// information loss.
  std::uint64_t emit_step = 0;
  std::uint64_t recv_cycle = 0;  ///< cycle the decoder received it

  std::uint64_t latency() const noexcept { return recv_cycle - emit_cycle; }
};
// One record per delivered copy: the log of a long run holds millions.
static_assert(sizeof(DeliveredSpike) == 40);

/// Fault-injection accounting of one run/session (all zero — and the fault
/// branches never taken — when no FaultConfig is set; see noc/faults.hpp).
struct FaultStats {
  std::uint64_t link_faults = 0;       ///< bidirectional link-down transitions
  std::uint64_t router_faults = 0;     ///< router-down transitions
  std::uint64_t tile_faults = 0;       ///< direct tile-down transitions
  std::uint64_t links_restored = 0;    ///< transient link recoveries
  /// Flits forwarded through a non-primary port because the primary
  /// candidate was fault-masked (the fault-aware reroute counter).
  std::uint64_t reroutes = 0;
  std::uint64_t flits_dropped = 0;   ///< flit copies lost on a lossy wire
  std::uint64_t copies_dropped = 0;  ///< destination copies those flits held
  /// Destination copies purged from a dying router's buffers.
  std::uint64_t copies_killed = 0;
  /// Destination copies abandoned because no live route exists (pruned at
  /// injection, at a fault transition, or when a flit reaches a router
  /// with every candidate port dead).
  std::uint64_t copies_unroutable = 0;
  /// Destination copies of packets whose *source* tile/router was dead at
  /// injection time (the spike never entered the fabric).
  std::uint64_t copies_blocked_at_source = 0;
  /// Packet events that contributed no flit at all (dead source, or every
  /// destination unroutable).
  std::uint64_t packets_blocked = 0;
  /// Destination copies a max_cycles halt left undelivered: still buffered
  /// in the fabric, or held by queued events that were never injected
  /// (traffic due at or beyond max_cycles is not injected — see
  /// NocConfig::max_cycles).  Zero on drained runs.  Not a fault mechanism
  /// (any() ignores it; fault-free halts strand copies too), but part of
  /// copies_lost() so the conservation identity
  ///   copies_delivered + copies_lost() == copies offered
  /// holds for halted sessions exactly as for drained ones.
  std::uint64_t copies_stranded = 0;

  /// Destination copies that did not (and will never) reach a decoder, by
  /// every mechanism — fault losses plus halt stranding.
  std::uint64_t copies_lost() const noexcept {
    return copies_dropped + copies_killed + copies_unroutable +
           copies_blocked_at_source + copies_stranded;
  }
  bool any() const noexcept {
    return link_faults != 0 || router_faults != 0 || tile_faults != 0 ||
           reroutes != 0 || flits_dropped != 0 || copies_dropped != 0 ||
           copies_killed != 0 || copies_unroutable != 0 ||
           copies_blocked_at_source != 0;
  }
};

/// Conventional interconnect statistics (latency/energy/throughput, Sec. II).
struct NocStats {
  std::uint64_t packets_injected = 0;   ///< traffic events offered
  std::uint64_t flits_injected = 0;     ///< flit copies entering the NoC
  std::uint64_t copies_delivered = 0;   ///< flit copies reaching a decoder
  std::uint64_t link_hops = 0;          ///< flit-link traversals (on + off chip)
  /// Subset of link_hops crossing a chip boundary (0 on single-chip
  /// fabrics); priced at EnergyModel::offchip_link_hop_pj.
  std::uint64_t offchip_link_hops = 0;
  std::uint64_t router_traversals = 0;  ///< flit-router traversals
  double global_energy_pj = 0.0;        ///< interconnect (global synapse) energy
  util::Accumulator latency_cycles;     ///< per delivered copy
  std::uint64_t max_latency_cycles = 0;
  std::uint64_t duration_cycles = 0;    ///< cycles until the NoC drained
  bool drained = true;                  ///< false if max_cycles was hit
  /// Flit traversals per directed link, keyed (from_router << 32) | to.
  /// Exposes hotspots; summarized by link_utilization_*() below.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> link_flits;
  /// Fault-injection accounting (all zero on fault-free runs).
  FaultStats fault;

  /// AER packets per millisecond observed at decoders.
  double throughput_aer_per_ms(std::uint32_t cycles_per_ms) const noexcept;

  /// Max and mean flits over links that carried traffic (0 when none).
  std::uint64_t max_link_flits() const noexcept;
  double mean_link_flits() const noexcept;
  /// Hotspot factor: max/mean over used links (1.0 = perfectly even).
  double link_hotspot_factor() const noexcept;
};

/// Activity observed by one accounting window of a NocSimulator session
/// ([start_cycle, end_cycle) of virtual time).  All counts are exact
/// integers — deltas of the simulator's flat counters at the window
/// boundary — so summing windows reproduces the one-shot aggregates with
/// no floating-point drift.
struct WindowEnergySample {
  std::uint64_t index = 0;        ///< position in the session's window list
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;
  /// Cycles the fabric actually arbitrated inside the window (idle spans
  /// are fast-forwarded and cost no energy or activity).
  std::uint64_t busy_cycles = 0;
  std::uint64_t flits_injected = 0;    ///< AER encodes (one per flit copy)
  std::uint64_t copies_delivered = 0;  ///< AER decodes (one per delivery)
  std::uint64_t link_hops = 0;         ///< flit-link traversals (on + off chip)
  std::uint64_t offchip_link_hops = 0; ///< subset crossing a chip boundary
  std::uint64_t router_traversals = 0; ///< flit-router (switch) traversals
  /// Largest per-directed-link flit count within the window (hotspot peak).
  std::uint64_t peak_link_flits = 0;
  /// Window activity priced at the nominal EnergyModel constants, in pJ
  /// (DVFS scaling is applied by the consumer, e.g. cosim::CoSimulator).
  double energy_pj = 0.0;

  std::uint64_t codec_events() const noexcept {
    return flits_injected + copies_delivered;
  }
  /// Busy fraction of the window's virtual-time span (0 for empty spans).
  double utilization() const noexcept {
    return end_cycle > start_cycle
               ? static_cast<double>(busy_cycles) /
                     static_cast<double>(end_cycle - start_cycle)
               : 0.0;
  }
};

/// Per-window energy accounting of one NocSimulator session.  The integer
/// totals are exact sums of the samples' deltas, so `total_energy_pj` is
/// bit-identical to the NocStats::global_energy_pj the same session reports
/// — windowing loses nothing relative to one-shot accounting.
struct WindowEnergyReport {
  std::vector<WindowEnergySample> windows;
  std::uint64_t busy_cycles = 0;
  std::uint64_t codec_events = 0;
  std::uint64_t link_hops = 0;          ///< on + off chip
  std::uint64_t offchip_link_hops = 0;
  std::uint64_t router_traversals = 0;
  /// Summed integer activity priced through
  /// hw::EnergyModel::activity_energy_pj at nominal constants.
  double total_energy_pj = 0.0;
};

/// The paper's SNN performance metrics.
struct SnnMetrics {
  double isi_distortion_avg_cycles = 0.0;
  double isi_distortion_max_cycles = 0.0;
  double disorder_fraction = 0.0;  ///< disordered spikes / delivered spikes
  std::uint64_t disordered_spikes = 0;
  std::uint64_t delivered_spikes = 0;
  std::uint64_t isi_pairs = 0;  ///< number of (stream, consecutive-pair) samples

  double disorder_percent() const noexcept { return disorder_fraction * 100.0; }
};

/// Computes disorder + ISI distortion from the delivery log.
/// Disorder: per destination tile, scan deliveries in arrival order,
/// (recv_cycle, emit_cycle), and count spikes overtaken by a spike of a
/// later emit_step.
/// ISI distortion: per (source neuron, destination tile) stream in emission
/// order, (sequence, recv_cycle, emit_cycle), the samples
/// |(recv_i - recv_{i-1}) - (emit_i - emit_{i-1})|, averaged in stream-major
/// (neuron, dest) order.  Exact ties in these keys keep log order.
/// The log is read in place, in log order: simulator logs already list each
/// tile in arrival order and almost every stream in sequence, so only the
/// records of tiles and streams the scan flags as out of order are copied,
/// sorted and rescanned.  Besides those it holds 8 bytes per ISI sample and
/// per-tile and per-stream state.
SnnMetrics compute_snn_metrics(const std::vector<DeliveredSpike>& delivery_log);

}  // namespace snnmap::noc
