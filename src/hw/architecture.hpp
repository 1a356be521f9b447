// Neuromorphic hardware architecture description (Fig. 1 of the paper).
//
// An architecture is C crossbars of Nc neurons each, joined by a
// time-multiplexed global-synapse interconnect.  The paper's reference
// hardware is CxQuad (4 crossbars, NoC-tree); TrueNorth/HiCANN use NoC-mesh.
// The architecture is a pure value type: the NoC simulator and the
// partitioners both consume it.
//
// Beyond the paper's single-chip fabrics, the description carries a chip
// boundary (`chip_count`): tiles are split contiguously across chips, links
// whose endpoints sit on different chips are "off-chip" and pay a distinct
// energy (hw::EnergyModel::offchip_link_hop_pj) and extra latency in the
// NoC simulator.  The dragonfly / fat-tree kinds are the large-system
// topologies the scale-out roadmap item calls for.
#pragma once

#include <cstdint>
#include <string>

namespace snnmap::hw {

/// Global-synapse interconnect families.  Mesh/tree/ring are the paper's
/// single-chip fabrics (Sec. II: "The commonly used ones are NoC-tree
/// (CxQuad) and NoC-mesh (TrueNorth, HiCANN)"); dragonfly and fat-tree are
/// the multi-chip scale-out fabrics.
enum class InterconnectKind : std::uint8_t {
  kMesh,
  kTree,
  kRing,
  kDragonfly,
  kFattree,
};

const char* to_string(InterconnectKind kind) noexcept;

/// Parse from the names used in config files ("mesh" / "tree" / "ring" /
/// "dragonfly" / "fattree"); throws std::invalid_argument on unknown names
/// (the message lists every accepted kind).
InterconnectKind interconnect_from_string(const std::string& name);

struct Architecture {
  std::uint32_t crossbar_count = 4;
  std::uint32_t neurons_per_crossbar = 256;
  InterconnectKind interconnect = InterconnectKind::kTree;
  /// Fan-out of internal tree routers (CxQuad joins 4 leaves under one hub).
  std::uint32_t tree_arity = 4;
  /// Interconnect cycles per simulated millisecond: the time-multiplexing
  /// ratio between the SNN step and the NoC clock.
  std::uint32_t cycles_per_ms = 1000;
  /// Chips the tile array is split across (contiguous tile ranges).  1 =
  /// the paper's single-chip devices; > 1 tags inter-chip links off-chip.
  std::uint32_t chip_count = 1;
  /// Dragonfly parameters (kDragonfly): `a` routers per group, `g` groups,
  /// `h` global channels per router.  Balanced when a*h == g-1.
  std::uint32_t dragonfly_arity = 4;
  std::uint32_t dragonfly_groups = 5;
  std::uint32_t dragonfly_global = 1;
  /// Fat-tree radix (kFattree): k-port switches, k^2/2 edge tiles.
  std::uint32_t fattree_k = 4;

  /// Total neuron capacity of the device.
  std::uint64_t capacity() const noexcept {
    return static_cast<std::uint64_t>(crossbar_count) * neurons_per_crossbar;
  }

  /// True when a network of `neurons` fits.
  bool fits(std::uint64_t neurons) const noexcept {
    return neurons <= capacity();
  }

  /// Mesh side lengths (width >= height, width*height >= crossbar_count).
  std::uint32_t mesh_width() const noexcept;
  std::uint32_t mesh_height() const noexcept;

  /// Tiles the configured interconnect instantiates (>= crossbar_count for
  /// mesh; exactly crossbar_count for tree/ring; fixed by the dragonfly /
  /// fat-tree parameters).
  std::uint32_t interconnect_tile_count() const noexcept;

  /// Throws std::invalid_argument on degenerate parameters: zero crossbars,
  /// zero-neuron crossbars, zero chips (or more chips than tiles), tree
  /// arity < 2, degenerate dragonfly (needs a >= 2, g >= 2, h >= 1 and
  /// a*h >= g-1 for a full set of global channels), odd or < 2 fat-tree
  /// radix, or a dragonfly/fat-tree whose tile capacity cannot seat every
  /// crossbar.
  void validate() const;

  /// The CxQuad reference device: 1024 neurons in 4 crossbars of 256,
  /// NoC-tree interconnect (Sec. I/II).
  static Architecture cxquad() noexcept;

  /// Smallest architecture of the given crossbar size and interconnect that
  /// holds `neurons` neurons (used by the architecture-exploration bench,
  /// Fig. 6, which sweeps neurons_per_crossbar and derives crossbar_count).
  /// Dragonfly/fat-tree parameters are grown to seat the crossbars.
  static Architecture sized_for(std::uint64_t neurons,
                                std::uint32_t neurons_per_crossbar,
                                InterconnectKind kind);

  /// One-line human-readable description.
  std::string describe() const;
};

}  // namespace snnmap::hw
