// Neuron-to-crossbar assignment (the decision variables of Sec. III).
//
// A Partition assigns every neuron a_i to exactly one crossbar c_k — the
// one-hot view of the paper's x_{i,k} variables.  The two PSO constraints
// (Eq. 4: one crossbar per neuron; Eq. 5: at most Nc neurons per crossbar)
// are checkable here and enforced by the partitioners' repair operators.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/architecture.hpp"

namespace snnmap::core {

using CrossbarId = std::uint32_t;
inline constexpr CrossbarId kUnassigned = static_cast<CrossbarId>(-1);

class Partition {
 public:
  Partition() = default;
  /// All neurons start unassigned.
  Partition(std::uint32_t neuron_count, std::uint32_t crossbar_count);

  std::uint32_t neuron_count() const noexcept {
    return static_cast<std::uint32_t>(assignment_.size());
  }
  std::uint32_t crossbar_count() const noexcept { return crossbar_count_; }

  CrossbarId crossbar_of(std::uint32_t neuron) const {
    return assignment_.at(neuron);
  }
  void assign(std::uint32_t neuron, CrossbarId crossbar);

  const std::vector<CrossbarId>& assignment() const noexcept {
    return assignment_;
  }

  /// Neurons currently on each crossbar.
  std::vector<std::uint32_t> occupancy() const;

  /// Eq. 4: every neuron assigned to exactly one crossbar.
  bool is_complete() const noexcept;
  /// Eq. 5: no crossbar holds more than `capacity` neurons.
  bool satisfies_capacity(std::uint32_t capacity) const;

  /// Throws std::runtime_error naming the violated constraint, if any.
  void validate(const hw::Architecture& arch) const;

  friend bool operator==(const Partition&, const Partition&) = default;

 private:
  std::vector<CrossbarId> assignment_;
  std::uint32_t crossbar_count_ = 0;
};

}  // namespace snnmap::core
