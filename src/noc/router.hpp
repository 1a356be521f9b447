// Input-buffered NoC router with round-robin output arbitration and
// router-level multicast (the paper's Noxim++ adds a "multicast feature,
// where spike packets can be communicated to a selected subset of crossbars").
//
// Packets are single-flit (on hardware an AER word fits one flit; a Flit
// carries the word's fields unpacked), store-and-forward.
// A multicast flit occupies its input-queue head until every output port its
// destination set requires has been served; each served port receives an
// independent copy carrying the subset of destinations routed through it.
//
// Storage is flat: the bounded inter-router FIFOs live in one contiguous
// slot array (`port * buffer_depth` ring buffers) and the unbounded
// injection FIFO is a compacting vector, so the cycle loop never chases
// deque chunks or performs bounds-checked map lookups.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "noc/topology.hpp"

namespace snnmap::noc {

/// A single-flit packet (or packet copy) in flight.  Destinations live in
/// the simulator's destination arena; a flit carries only its range, so
/// forking a multicast subset never allocates.
struct Flit {
  std::uint32_t source_neuron = 0;
  TileId source_tile = 0;
  std::uint64_t emit_cycle = 0;
  std::uint64_t emit_step = 0;
  std::uint32_t sequence = 0;         ///< per-source-neuron emission counter
  std::uint32_t dest_begin = 0;       ///< arena offset of this copy's dests
  std::uint32_t dest_count = 0;       ///< remaining destinations of this copy
  /// First cycle this flit may be arbitrated at its current router.  On-chip
  /// forwards set arrival + 0 extra (the classic next-cycle handoff);
  /// off-chip forwards add NocConfig::offchip_link_latency to model the
  /// slower chip-to-chip SerDes crossing.
  std::uint64_t ready_cycle = 0;
  /// Route-compute stage result at the current router: bit `o` is set when
  /// output `o` (port_count() = local ejection) serves at least one of the
  /// remaining destinations (for a single destination: is one of its
  /// selectable candidates).  0 = not yet routed here; forwarding resets it.
  std::uint64_t route_mask = 0;
};
// Every buffered flit and forked copy is one of these: keep it small.
static_assert(sizeof(Flit) == 56);

/// Per-router state: one FIFO per input (inter-router ports in neighbor
/// order, plus one injection queue at index port_count), and a round-robin
/// pointer per output port (+ local ejection port at index port_count).
class Router {
 public:
  Router(RouterId id, std::uint32_t port_count, std::uint32_t buffer_depth);

  RouterId id() const noexcept { return id_; }
  std::uint32_t port_count() const noexcept { return port_count_; }
  std::uint32_t buffer_depth() const noexcept { return buffer_depth_; }
  std::uint32_t input_count() const noexcept { return port_count_ + 1; }

  /// FIFO occupancy of input `port` (port == port_count() = injection).
  std::size_t queue_size(std::uint32_t port) const noexcept {
    return port == port_count_ ? inject_.size() - inject_head_
                               : ring_size_[port];
  }
  bool queue_empty(std::uint32_t port) const noexcept {
    return queue_size(port) == 0;
  }

  /// Head flit of a non-empty input FIFO.
  Flit& head(std::uint32_t port) noexcept {
    return port == port_count_
               ? inject_[inject_head_]
               : slots_[port * buffer_depth_ + ring_head_[port]];
  }
  const Flit& head(std::uint32_t port) const noexcept {
    return const_cast<Router*>(this)->head(port);
  }

  /// Appends to input `port`.  Inter-router FIFOs must have space
  /// (can_accept checked by the caller); the injection FIFO grows.
  void push(std::uint32_t port, const Flit& flit) {
    if (port == port_count_) {
      inject_.push_back(flit);
    } else {
      if (ring_size_[port] >= buffer_depth_) {
        throw std::logic_error("Router: push into full input FIFO");
      }
      slots_[port * buffer_depth_ +
             (ring_head_[port] + ring_size_[port]) % buffer_depth_] = flit;
      ++ring_size_[port];
    }
    occupied_ |= 1ULL << port;
    ++buffered_;
  }

  /// Pops the head of a non-empty input FIFO.
  void pop(std::uint32_t port) noexcept {
    if (port == port_count_) {
      ++inject_head_;
      if (inject_head_ == inject_.size()) {
        inject_.clear();
        inject_head_ = 0;
      } else if (inject_head_ >= 64 && inject_head_ * 2 >= inject_.size()) {
        // Reclaim the popped prefix once it dominates the vector.
        inject_.erase(
            inject_.begin(),
            inject_.begin() + static_cast<std::ptrdiff_t>(inject_head_));
        inject_head_ = 0;
      }
      if (inject_head_ == inject_.size()) occupied_ &= ~(1ULL << port);
    } else {
      ring_head_[port] = (ring_head_[port] + 1) % buffer_depth_;
      if (--ring_size_[port] == 0) occupied_ &= ~(1ULL << port);
    }
    --buffered_;
  }

  /// Bit `port` set iff input FIFO `port` is non-empty (bit port_count() =
  /// the injection queue).  Lets the arbitration loop skip empty inputs
  /// with bit scans instead of per-queue probes.
  std::uint64_t occupied_mask() const noexcept { return occupied_; }

  /// True if inter-router input `port` can take one more flit, given
  /// `staged` arrivals already bound for it this cycle.  The injection queue
  /// is unbounded (the encoder stalls the crossbar, not the NoC).
  bool can_accept(std::uint32_t port, std::size_t staged) const noexcept {
    if (port == port_count_) return true;
    return ring_size_[port] + staged < buffer_depth_;
  }

  /// Round-robin pointer for output `out_port` (port_count() = local eject).
  std::uint32_t rr_pointer(std::uint32_t out_port) const noexcept {
    return rr_[out_port];
  }
  void advance_rr(std::uint32_t out_port) noexcept {
    rr_[out_port] = (rr_[out_port] + 1) % input_count();
  }

  bool all_queues_empty() const noexcept { return buffered_ == 0; }
  std::size_t buffered_flits() const noexcept { return buffered_; }

  /// Discards every buffered flit (all input FIFOs and the injection
  /// queue).  Fault path only: a dying router's buffered traffic is lost —
  /// the caller accounts the destination copies (via for_each_flit) before
  /// clearing.
  void clear_queues() noexcept {
    for (std::uint32_t p = 0; p < port_count_; ++p) {
      ring_head_[p] = 0;
      ring_size_[p] = 0;
    }
    inject_.clear();
    inject_head_ = 0;
    occupied_ = 0;
    buffered_ = 0;
  }

  /// Invokes fn(Flit&) for every buffered flit (arena compaction hook).
  template <typename Fn>
  void for_each_flit(Fn&& fn) {
    for (std::uint32_t p = 0; p < port_count_; ++p) {
      for (std::uint32_t k = 0; k < ring_size_[p]; ++k) {
        fn(slots_[p * buffer_depth_ +
                  (ring_head_[p] + k) % buffer_depth_]);
      }
    }
    for (std::size_t k = inject_head_; k < inject_.size(); ++k) {
      fn(inject_[k]);
    }
  }

 private:
  RouterId id_;
  std::uint32_t port_count_;
  std::uint32_t buffer_depth_;
  std::size_t buffered_ = 0;
  std::uint64_t occupied_ = 0;  ///< non-empty-input bitmask
  std::vector<Flit> slots_;               // port-major ring-buffer slots
  std::vector<std::uint32_t> ring_head_;  // per inter-router port
  std::vector<std::uint32_t> ring_size_;  // per inter-router port
  std::vector<Flit> inject_;              // unbounded injection FIFO
  std::size_t inject_head_ = 0;           // popped prefix (compacted lazily)
  std::vector<std::uint32_t> rr_;         // port_count_ + 1 (local last)
};

}  // namespace snnmap::noc
