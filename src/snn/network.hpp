// SNN topology builder.
//
// Mirrors the CARLsim user model: the application declares neuron *groups*
// (populations) and *connections* between groups (full, random, one-to-one,
// 2-D Gaussian kernels), then hands the network to the simulator.  Groups are
// laid out contiguously in a flat global neuron index space; that declaration
// order matters downstream because the PACMAN baseline partitions neurons in
// exactly this order (see src/core/pacman.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "snn/neuron.hpp"
#include "util/rng.hpp"

namespace snnmap::snn {

/// Global neuron index (dense, [0, neuron_count)).
using NeuronId = std::uint32_t;
inline constexpr NeuronId kInvalidNeuron = static_cast<NeuronId>(-1);

/// How synapse weights are drawn when a connection is created.
struct WeightSpec {
  double lo = 0.0;
  double hi = 0.0;

  static WeightSpec fixed(double w) noexcept { return {w, w}; }
  static WeightSpec uniform(double lo, double hi) noexcept { return {lo, hi}; }

  double sample(util::Rng& rng) const noexcept {
    return lo == hi ? lo : rng.uniform(lo, hi);
  }
};

/// One synapse in the flat connection list.  `weight` is the current injected
/// into the post neuron when the spike arrives (negative = inhibitory).
struct Synapse {
  NeuronId pre = kInvalidNeuron;
  NeuronId post = kInvalidNeuron;
  float weight = 0.0F;
  std::uint16_t delay_steps = 1;  ///< axonal delay in simulation steps (>= 1)
  bool plastic = false;           ///< subject to STDP during simulation
};

/// A declared population of identical-model neurons.
struct Group {
  std::string name;
  NeuronId first = 0;     ///< first global id of the group
  std::uint32_t size = 0;
  NeuronModel model = NeuronModel::kIzhikevich;
  LifParams lif;
  IzhikevichParams izh;
  double poisson_rate_hz = 0.0;  ///< baseline rate for kPoisson groups
  /// Optional time-varying rate override for kPoisson groups:
  /// (local neuron index, time ms) -> rate Hz.  Null = constant baseline.
  std::function<double(std::uint32_t, double)> rate_fn;

  NeuronId last() const noexcept { return first + size; }  // one past end
};

/// Mutable SNN under construction; immutable once handed to the Simulator.
class Network {
 public:
  using GroupId = std::size_t;
  static constexpr GroupId kNoGroup = static_cast<GroupId>(-1);

  // -- group declaration ----------------------------------------------------

  GroupId add_lif_group(std::string name, std::uint32_t size,
                        const LifParams& params = {});
  GroupId add_izhikevich_group(std::string name, std::uint32_t size,
                               const IzhikevichParams& params = {});
  /// Stochastic input population firing at `rate_hz` (overridable per group
  /// with set_rate_function, e.g. for pixel-intensity-coded images).
  GroupId add_poisson_group(std::string name, std::uint32_t size,
                            double rate_hz);

  /// Installs a time-varying rate function on a Poisson group.
  void set_rate_function(
      GroupId group, std::function<double(std::uint32_t, double)> rate_fn);

  // -- connection patterns --------------------------------------------------

  /// All-to-all (optionally excluding self-connections when pre == post).
  void connect_full(GroupId pre, GroupId post, WeightSpec weights,
                    util::Rng& rng, std::uint16_t delay_steps = 1,
                    bool plastic = false, bool allow_self = false);

  /// Independent Bernoulli(p) connectivity per neuron pair.
  void connect_random(GroupId pre, GroupId post, double probability,
                      WeightSpec weights, util::Rng& rng,
                      std::uint16_t delay_steps = 1, bool plastic = false,
                      bool allow_self = false);

  /// i -> i for equal-sized groups; throws on size mismatch.
  void connect_one_to_one(GroupId pre, GroupId post, WeightSpec weights,
                          util::Rng& rng, std::uint16_t delay_steps = 1,
                          bool plastic = false);

  /// 2-D Gaussian kernel between two `width` x `height` populations: each
  /// post pixel receives synapses from pre pixels within `radius` (Chebyshev)
  /// with weight peak_weight * exp(-d^2 / (2 sigma^2)).  This is the image
  /// smoothing topology from CARLsim's tutorial used by the paper.
  void connect_gaussian_2d(GroupId pre, GroupId post, std::uint32_t width,
                           std::uint32_t height, int radius,
                           double peak_weight, double sigma,
                           std::uint16_t delay_steps = 1);

  /// Single explicit synapse by global ids (bounds-checked).
  void add_synapse(NeuronId pre, NeuronId post, double weight,
                   std::uint16_t delay_steps = 1, bool plastic = false);

  // -- accessors ------------------------------------------------------------

  std::uint32_t neuron_count() const noexcept { return next_id_; }
  std::size_t group_count() const noexcept { return groups_.size(); }
  const Group& group(GroupId g) const { return groups_.at(g); }
  const std::vector<Group>& groups() const noexcept { return groups_; }
  const std::vector<Synapse>& synapses() const noexcept { return synapses_; }
  /// Mutable access for STDP write-back and experiment-time edits
  /// (lesioning, reweighting).  A Simulator snapshots synapses at
  /// construction, so edits made here are only picked up by Simulators
  /// built afterwards.
  std::vector<Synapse>& mutable_synapses() noexcept { return synapses_; }

  /// Looks up a group by name; returns kNoGroup when absent.
  GroupId find_group(const std::string& name) const noexcept;

  /// Maximum axonal delay over all synapses (>= 1 even when empty).
  /// Maintained incrementally by add_synapse, so this is O(1).
  std::uint16_t max_delay_steps() const noexcept { return max_delay_steps_; }

  /// CSR-style fan-out index: synapse indices ordered by pre neuron.
  /// Built lazily; invalidated by any further synapse addition.
  const std::vector<std::uint32_t>& fanout_offsets() const;
  const std::vector<std::uint32_t>& fanout_synapses() const;

 private:
  GroupId add_group(Group g);
  void check_group(GroupId g) const;
  void invalidate_index() noexcept { index_built_ = false; }
  void build_index() const;

  std::vector<Group> groups_;
  std::vector<Synapse> synapses_;
  NeuronId next_id_ = 0;
  std::uint16_t max_delay_steps_ = 1;

  mutable bool index_built_ = false;
  mutable std::vector<std::uint32_t> fanout_offsets_;
  mutable std::vector<std::uint32_t> fanout_synapses_;
};

}  // namespace snnmap::snn
