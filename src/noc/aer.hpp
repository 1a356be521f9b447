// Address Event Representation (AER) encoding — Sec. II / Fig. 2.
//
// "A spike is encoded uniquely on the global synapse interconnect in terms of
// its source and time of spike."  We pack (source neuron, source crossbar,
// emission cycle) into one 64-bit word: 20 bits neuron, 12 bits crossbar,
// 32 bits timestamp.  The NoC simulator does not pack flits: a noc::Flit
// carries the same fields unpacked at full width, so this codec only pins
// the hardware word layout (tests/noc/aer_test.cpp).
#pragma once

#include <cstdint>

namespace snnmap::noc {

/// Field widths of the 64-bit AER word.
inline constexpr std::uint32_t kAerNeuronBits = 20;
inline constexpr std::uint32_t kAerCrossbarBits = 12;
inline constexpr std::uint32_t kAerTimeBits = 32;
inline constexpr std::uint32_t kAerMaxNeuron = (1u << kAerNeuronBits) - 1;
inline constexpr std::uint32_t kAerMaxCrossbar = (1u << kAerCrossbarBits) - 1;
/// One past the largest representable timestamp (2^32).
inline constexpr std::uint64_t kAerTimeWrap = std::uint64_t{1} << kAerTimeBits;

/// Decoded spike event.
///
/// Timestamp wrap contract: the on-wire timestamp field is the emission
/// cycle *modulo 2^32* (kAerTimeWrap).  Open-loop traces stay far below the
/// wrap, but closed-loop co-simulation (src/cosim/) runs cycle counts of
/// steps x cycles_per_timestep that can exceed 2^32, so encoders must fold
/// the cycle through aer_timestamp() rather than narrowing it ad hoc, and
/// decoders must treat equal timestamps from different wrap epochs as
/// ambiguous.  That ambiguity is harmless in this codebase: delivery
/// bookkeeping (latency, arrival steps) rides the simulator's native 64-bit
/// cycle counters, and the AER word is the hardware protocol payload only.
struct AerEvent {
  std::uint32_t source_neuron = 0;   ///< global neuron id (<= kAerMaxNeuron)
  std::uint32_t source_crossbar = 0; ///< crossbar id (<= kAerMaxCrossbar)
  std::uint32_t timestamp = 0;       ///< emission cycle mod 2^32
};

/// Folds a 64-bit simulator cycle into the 32-bit AER timestamp field
/// (cycle mod 2^32) — the only sanctioned narrowing of a cycle count.
inline constexpr std::uint32_t aer_timestamp(std::uint64_t cycle) noexcept {
  return static_cast<std::uint32_t>(cycle & (kAerTimeWrap - 1));
}

/// Encoded single-flit payload.
struct AerWord {
  std::uint64_t bits = 0;
  friend bool operator==(const AerWord&, const AerWord&) = default;
};

/// Packs an event; throws std::out_of_range if a field exceeds its width.
AerWord aer_encode(const AerEvent& event);

/// Unpacks a word (total: every 64-bit pattern decodes to some event).
AerEvent aer_decode(AerWord word) noexcept;

}  // namespace snnmap::noc
