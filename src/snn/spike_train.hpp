// Spike trains and inter-spike-interval (ISI) utilities.
//
// A spike train is a monotonically non-decreasing sequence of spike times in
// milliseconds.  ISI statistics are central to the paper: the heartbeat
// estimation app is temporally coded, and one of the two introduced metrics
// (ISI distortion, Sec. II) compares source and destination ISIs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace snnmap::snn {

/// Simulation time in milliseconds.
using TimeMs = double;

/// A single spike train (sorted spike times of one neuron, in ms).
using SpikeTrain = std::vector<TimeMs>;

/// One entry of a flat spike event log: which neuron fired, and when.  The
/// simulator records spikes as a single append-only vector of these (16
/// bytes, no per-neuron allocation) and scatters them into trains on demand.
struct SpikeEvent {
  std::uint32_t neuron = 0;
  TimeMs time_ms = 0.0;
};

/// Scatters a time-ordered flat event log into per-neuron spike trains by
/// counting sort: one pass to size every train exactly, one pass to fill.
/// Events must be sorted by time (ties in any order); each returned train is
/// then sorted by construction.  Neuron ids must be < neuron_count.
std::vector<SpikeTrain> trains_from_events(std::size_t neuron_count,
                                           const std::vector<SpikeEvent>& events);

/// True if times are sorted (non-decreasing) and non-negative.
bool is_valid_train(const SpikeTrain& train);

/// Consecutive inter-spike intervals; empty for fewer than two spikes.
std::vector<double> inter_spike_intervals(const SpikeTrain& train);

/// Mean firing rate in Hz over [0, duration_ms]; 0 for an empty window.
double mean_rate_hz(const SpikeTrain& train, TimeMs duration_ms);

/// Number of spikes in the half-open window [t0, t1).
std::size_t spikes_in_window(const SpikeTrain& train, TimeMs t0, TimeMs t1);

/// Coefficient of variation of the ISIs (stddev/mean); 0 when undefined.
/// CV ~= 1 characterizes Poisson firing; the workload generators are
/// validated against this in the property tests.
double isi_coefficient_of_variation(const SpikeTrain& train);

/// Merges two sorted trains into one sorted train.
SpikeTrain merge_trains(const SpikeTrain& a, const SpikeTrain& b);

}  // namespace snnmap::snn
