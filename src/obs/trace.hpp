// Deterministic event tracing for the NoC / co-simulation stack.
//
// The tracer is a flat ring buffer of typed, integer-timestamped events —
// flit lifecycle (inject / hop / park / deliver / drop), fault transitions,
// AER retries, remap triggers, DVFS window decisions — recorded from gated
// call sites in noc::NocSimulator and cosim::CoSimulator.  Gating follows
// the fault subsystem's discipline: every call site tests one hoisted bool
// (`trace_active_`), so a default TraceConfig records nothing and the
// disabled path costs a predictable branch.  BM_NocFeatureOverhead in
// bench/noc_sim_benchmarks.cpp records the dark path (`none`) and the cost
// of tracing into a 64Ki ring (`trace`) on one session.
//
// Determinism contract: the recorded stream is a pure function of
// (config, topology, traffic).  Trace events are emitted only when fabric
// state actually changes, and a cycle the event engine skips is by
// definition one in which nothing changes, so the stream is bit-identical
// across NocEngine::kCycle / kEvent and across any run_until / window
// chunking of a session (tests/obs/trace_determinism_test.cpp pins both).
// Fault-transition events carry their *scheduled* timeline cycle and are
// recorded up front at session begin — the timeline is a pure function of
// (topology, FaultConfig) — because the cycle at which an idle fabric
// happens to apply a batch of transitions is chunking-dependent.
//
// The ring keeps the most recent `ring_capacity` events for export; the
// FNV-1a digest is mixed at record time and therefore covers the *entire*
// stream, wraparound or not, which is what the determinism tests compare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace snnmap::obs {

/// Event-tracer settings.  Defaults are inert: nothing records and no
/// trace branch in the simulators is ever taken, preserving every golden
/// stream bit for bit.
struct TraceConfig {
  bool enabled = false;
  /// Events the ring retains for export (the digest always covers the full
  /// stream).  Must be >= 1 when enabled.
  std::uint32_t ring_capacity = 65536;

  /// Throws std::invalid_argument when enabled with a zero ring capacity
  /// (parity with hw::EnergyModel::validate() / FaultConfig::validate()).
  void validate() const;
};

/// What one TraceEvent describes.  Values are part of the trace schema
/// (CSV export writes the names, the digest mixes the raw values); append
/// new types at the end, never reorder.
enum class TraceEventType : std::uint8_t {
  kFlitInject = 0,   ///< a = source router, b = destination copies, c = neuron
  kFlitHop = 1,      ///< a = from router, b = out port, c = neuron
  kFlitPark = 2,     ///< a = at router, b = in port, c = un-park cycle
  kFlitDeliver = 3,  ///< a = dest router, b = dest tile, c = neuron
  kFlitDrop = 4,     ///< lossy wire: a = from router, b = out port, c = neuron
  kFaultLinkDown = 5,    ///< a = router, b = port (scheduled cycle)
  kFaultLinkUp = 6,      ///< a = router, b = port (transient heal)
  kFaultRouterDown = 7,  ///< a = router
  kFaultRouterUp = 8,    ///< a = router
  kFaultTileDown = 9,    ///< a = tile
  kFaultTileUp = 10,     ///< a = tile
  kAerRetry = 11,      ///< a = neuron, b = dest tile, c = attempt number
  kRemapTrigger = 12,  ///< a = dead crossbars, b = migrated, c = stranded
  kDvfsDecision = 13,  ///< a = window cycles, b = nominal cycles, c = step
};

/// Number of distinct TraceEventType values (CSV header / name table).
inline constexpr std::size_t kTraceEventTypeCount = 14;

const char* to_string(TraceEventType type) noexcept;

/// One trace record.  `cycle` is virtual interconnect time; the meaning of
/// a / b / c depends on `type` (see TraceEventType).
struct TraceEvent {
  std::uint64_t cycle = 0;
  TraceEventType type = TraceEventType::kFlitInject;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;

  bool operator==(const TraceEvent&) const = default;
};

/// The ring-buffer event recorder.  Owned by NocSimulator (one per
/// session); CoSimulator records its lockstep-level events through the
/// same instance so the stream interleaves fabric and protocol activity
/// in deterministic record order.
class Tracer {
 public:
  /// Applies a validated config: reset() + enable/resize.  Called from
  /// NocSimulator::begin() so every session starts with an empty stream.
  void configure(const TraceConfig& config);

  /// Drops all recorded events and restarts the digest.
  void reset();

  bool enabled() const noexcept { return enabled_; }

  /// Appends one event.  Callers gate on enabled() (hoisted, like
  /// faults_active_); record() itself does not re-check.
  void record(std::uint64_t cycle, TraceEventType type, std::uint32_t a,
              std::uint32_t b, std::uint64_t c) {
    mix(cycle);
    mix((static_cast<std::uint64_t>(a) << 8) |
        static_cast<std::uint64_t>(type));
    mix((static_cast<std::uint64_t>(b) << 32) ^ c);
    ++recorded_;
    if (ring_.size() < capacity_) {
      ring_.push_back(TraceEvent{cycle, type, a, b, c});
      return;
    }
    ring_[head_] = TraceEvent{cycle, type, a, b, c};
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  }

  /// Events recorded since the last reset (including any the ring evicted).
  std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events the ring evicted (recorded() - retained).
  std::uint64_t evicted() const noexcept { return recorded_ - ring_.size(); }

  /// FNV-1a digest over the full recorded stream (order-sensitive).
  std::uint64_t digest() const noexcept { return digest_; }

  /// The retained events, oldest first (unwraps the ring).  O(retained).
  std::vector<TraceEvent> events() const;

 private:
  void mix(std::uint64_t v) noexcept {
    // FNV-1a over the value's 8 bytes, unrolled byte-at-a-time.
    for (int s = 0; s < 64; s += 8) {
      digest_ ^= (v >> s) & 0xffU;
      digest_ *= 0x100000001b3ULL;
    }
  }

  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // next eviction slot once the ring is full
  std::vector<TraceEvent> ring_;
  std::uint64_t recorded_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

}  // namespace snnmap::obs
