// Fidelity metrics for closed-loop co-simulation: how faithfully did the
// interconnect transport the SNN's spikes, and how far did the resulting
// dynamics drift from an ideal (zero-congestion) interconnect?
#pragma once

#include <cstdint>
#include <vector>

#include "noc/metrics.hpp"
#include "obs/congestion.hpp"
#include "snn/spike_train.hpp"
#include "util/stats.hpp"

namespace snnmap::cosim {

/// Transport-level fidelity of one closed-loop run.  "Copies" are
/// (packet, destination-crossbar) pairs — the unit the receive queue and
/// the delivery log account in.
struct FidelityReport {
  std::uint64_t steps = 0;            ///< SNN steps simulated
  std::uint64_t total_spikes = 0;     ///< all SNN spikes (local + remote)
  std::uint64_t packets_offered = 0;  ///< multicast packets entering the NoC
  std::uint64_t copies_offered = 0;
  std::uint64_t copies_arrived = 0;   ///< reached a destination decoder
  std::uint64_t copies_accepted = 0;  ///< applied to the dynamics
  std::uint64_t receive_drops = 0;    ///< bounded-receive-queue rejections
  std::uint64_t undelivered = 0;      ///< still in flight when the run ended
  /// Accepted copies that arrived after their emission window — each one
  /// stretched its synaptic delay by at least a full timestep.
  std::uint64_t deadline_misses = 0;

  util::Accumulator transit_cycles;  ///< recv - emit, per arrived copy
  /// Deadline misses per *emission* step.
  std::vector<std::uint32_t> per_step_misses;

  // --- windowed interconnect energy + DVFS trajectory --------------------
  /// Total fabric (global-synapse) energy in pJ: per-window activity from
  /// the NoC's WindowEnergySample stream, priced at the EnergyModel
  /// constants and scaled by the DVFS energy factor of the frequency each
  /// window ran at.  Under DvfsPolicy fixed this is bit-identical to the
  /// one-shot NocStats::global_energy_pj of the same run (the accumulators
  /// carry exact integer activity when every scale is 1).
  double fabric_energy_pj = 0.0;
  /// DVFS-scaled energy of each lockstep window, in pJ (one entry per step).
  std::vector<double> per_step_energy_pj;
  /// Interconnect cycles each window actually ran (the realized DVFS
  /// frequency trajectory; cycles_per_timestep everywhere when fixed).
  std::vector<std::uint32_t> per_step_cycles;
  util::Accumulator window_energy_pj;  ///< over per_step_energy_pj samples
  util::Accumulator freq_scale;        ///< realized per-window f/f_nominal
  /// Cycles the fabric simulated in each window (idle spans fast-forward
  /// past); the sum is the session's busy-cycle total.
  util::Accumulator window_busy_cycles;
  /// Flits on the window's busiest link (the per-window hotspot peak).
  util::Accumulator window_peak_link_flits;

  /// Per-link congestion summary over the lockstep windows (one monitor
  /// window per step; `monitored == false` when NocConfig::monitor is
  /// disabled).  The persistently-hot link list is the input the ROADMAP's
  /// UGAL / mid-run-remap closed loop consumes.
  obs::CongestionReport congestion;

  /// Copies that failed to arrive within their window, over everything
  /// offered (misses + drops + undelivered; 0 when nothing was offered).
  double miss_fraction() const noexcept;
  double drop_fraction() const noexcept;
  /// Energy-delay product of the transport: total fabric energy x mean
  /// spike transit (pJ x cycles).  The DVFS tradeoff in one number — a
  /// policy that slows the fabric saves energy but stretches transit, and
  /// a good one lowers the product.
  double energy_delay_product() const noexcept {
    return fabric_energy_pj * transit_cycles.mean();
  }
};

/// Fault-tolerance accounting of one closed-loop run: what the fault model
/// injected, what the AER retry protocol recovered, and what the
/// remap-on-failure policy migrated.  All-zero (any() == false) when the
/// run had no faults, no retry protocol, and no remap policy.
///
/// Retransmitted traffic is *also* counted into FidelityReport's
/// packets_offered / copies_offered (a retry is real transport work), so
/// `undelivered = copies_offered - copies_arrived` stays a non-negative
/// invariant; retransmit_packets / retransmit_copies record how much of the
/// offered volume was retries.
struct ResilienceReport {
  noc::FaultStats noc_faults;  ///< fabric-level fault accounting (copy)

  // --- AER-boundary retry protocol ---------------------------------------
  std::uint64_t retransmit_packets = 0;  ///< retry packets re-injected
  std::uint64_t retransmit_copies = 0;   ///< destination copies across them
  /// (packet, destination) pairs that arrived only after >= 1 retransmit.
  std::uint64_t retry_recoveries = 0;
  /// Pending (packet, destination) pairs abandoned after timeout_windows —
  /// these synaptic deliveries are lost for good and the SNN dynamics
  /// diverge accordingly.
  std::uint64_t spikes_lost_timeout = 0;
  /// Copies that arrived after their retry entry had already timed out
  /// (discarded by the receiver's staleness window, not applied).
  std::uint64_t stale_arrivals = 0;
  /// Copies that arrived for an already-satisfied (packet, destination)
  /// pair — the original and a retransmit both made it (not applied twice).
  std::uint64_t duplicate_arrivals = 0;
  std::uint64_t pending_at_end = 0;  ///< retry entries still open at run end
  /// Source-side retry energy (hw::EnergyModel::retransmit_pj per
  /// retransmitted packet), separate from the fabric energy the retried
  /// copies accrue in flight.
  double retransmit_energy_pj = 0.0;

  // --- remap-on-failure graceful degradation -----------------------------
  std::uint32_t remap_events = 0;      ///< windows that triggered evacuation
  std::uint32_t neurons_migrated = 0;  ///< moved off dead crossbars (total)
  /// Neurons still on dead hardware after the *last* remap event (a state,
  /// not a per-event sum: each evacuation retries earlier strandings).
  std::uint32_t neurons_stranded = 0;

  bool any() const noexcept {
    return noc_faults.any() || retransmit_packets != 0 ||
           spikes_lost_timeout != 0 || stale_arrivals != 0 ||
           duplicate_arrivals != 0 || pending_at_end != 0 ||
           remap_events != 0;
  }
};

/// Exact spike-train divergence between two runs of the same network:
/// multiset intersection of (neuron, spike time) events.  Spike times are
/// step-grid multiples of dt, so exact double comparison is meaningful.
struct SpikeDivergence {
  std::uint64_t matched = 0;     ///< identical (neuron, time) events
  std::uint64_t only_ideal = 0;  ///< events only in the reference run
  std::uint64_t only_cosim = 0;  ///< events only in the co-sim run
  /// Symmetric difference over the union; 0 = bit-identical dynamics,
  /// 1 = no shared spikes.
  double fraction() const noexcept;
  bool identical() const noexcept {
    return only_ideal == 0 && only_cosim == 0;
  }
};

/// Compares per-neuron trains (reference first).  Throws
/// std::invalid_argument when the neuron counts differ.
SpikeDivergence spike_divergence(
    const std::vector<snn::SpikeTrain>& ideal,
    const std::vector<snn::SpikeTrain>& cosim);

}  // namespace snnmap::cosim
