#include "core/partition.hpp"

#include <stdexcept>
#include <string>

namespace snnmap::core {

Partition::Partition(std::uint32_t neuron_count, std::uint32_t crossbar_count)
    : assignment_(neuron_count, kUnassigned), crossbar_count_(crossbar_count) {
  if (crossbar_count == 0) {
    throw std::invalid_argument("Partition: need at least one crossbar");
  }
}

void Partition::assign(std::uint32_t neuron, CrossbarId crossbar) {
  if (neuron >= assignment_.size()) {
    throw std::out_of_range("Partition: neuron id out of range");
  }
  if (crossbar != kUnassigned && crossbar >= crossbar_count_) {
    throw std::out_of_range("Partition: crossbar id out of range");
  }
  assignment_[neuron] = crossbar;
}

std::vector<std::uint32_t> Partition::occupancy() const {
  std::vector<std::uint32_t> occ(crossbar_count_, 0);
  for (const CrossbarId c : assignment_) {
    if (c != kUnassigned) ++occ[c];
  }
  return occ;
}

bool Partition::is_complete() const noexcept {
  for (const CrossbarId c : assignment_) {
    if (c == kUnassigned) return false;
  }
  return true;
}

bool Partition::satisfies_capacity(std::uint32_t capacity) const {
  for (const std::uint32_t occ : occupancy()) {
    if (occ > capacity) return false;
  }
  return true;
}

void Partition::validate(const hw::Architecture& arch) const {
  if (crossbar_count_ != arch.crossbar_count) {
    throw std::runtime_error("Partition: crossbar count mismatch (" +
                             std::to_string(crossbar_count_) + " vs " +
                             std::to_string(arch.crossbar_count) + ")");
  }
  if (!is_complete()) {
    throw std::runtime_error(
        "Partition: constraint Eq.4 violated (unassigned neuron)");
  }
  if (!satisfies_capacity(arch.neurons_per_crossbar)) {
    throw std::runtime_error(
        "Partition: constraint Eq.5 violated (crossbar over capacity)");
  }
}

}  // namespace snnmap::core
