// Deterministic mixing helpers shared across the trace builders and the
// per-task random streams of parallel fan-outs.
#pragma once

#include <cstdint>

namespace snnmap::util {

/// The splitmix64 finalizer: a bijective avalanche mix of one 64-bit word.
inline constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// splitmix64-finalizer hash of a (neuron, per-neuron spike index) pair —
/// the deterministic per-spike jitter source.  The open-loop trace builder
/// (core::build_traffic) and the closed-loop co-simulator's encoder both
/// draw from this one definition so their injection jitter can never
/// silently diverge.
inline constexpr std::uint64_t spike_jitter_hash(std::uint64_t neuron,
                                                 std::uint64_t index) noexcept {
  return mix64(neuron * 0x9E3779B97F4A7C15ULL + index + 1);
}

}  // namespace snnmap::util
