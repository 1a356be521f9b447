#include "hw/architecture.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace snnmap::hw {

const char* to_string(InterconnectKind kind) noexcept {
  switch (kind) {
    case InterconnectKind::kMesh: return "mesh";
    case InterconnectKind::kTree: return "tree";
    case InterconnectKind::kRing: return "ring";
    case InterconnectKind::kDragonfly: return "dragonfly";
    case InterconnectKind::kFattree: return "fattree";
  }
  return "?";
}

InterconnectKind interconnect_from_string(const std::string& name) {
  if (name == "mesh") return InterconnectKind::kMesh;
  if (name == "tree") return InterconnectKind::kTree;
  if (name == "ring") return InterconnectKind::kRing;
  if (name == "dragonfly") return InterconnectKind::kDragonfly;
  if (name == "fattree") return InterconnectKind::kFattree;
  throw std::invalid_argument(
      "unknown interconnect kind: '" + name +
      "' (expected mesh | tree | ring | dragonfly | fattree)");
}

std::uint32_t Architecture::mesh_width() const noexcept {
  // Squarest mesh that holds crossbar_count tiles.
  std::uint32_t h = static_cast<std::uint32_t>(
      std::floor(std::sqrt(static_cast<double>(crossbar_count))));
  if (h == 0) h = 1;
  std::uint32_t w = (crossbar_count + h - 1) / h;
  return w;
}

std::uint32_t Architecture::mesh_height() const noexcept {
  const std::uint32_t w = mesh_width();
  return (crossbar_count + w - 1) / w;
}

std::uint32_t Architecture::interconnect_tile_count() const noexcept {
  switch (interconnect) {
    case InterconnectKind::kMesh: return mesh_width() * mesh_height();
    case InterconnectKind::kTree:
    case InterconnectKind::kRing: return crossbar_count;
    case InterconnectKind::kDragonfly:
      return dragonfly_arity * dragonfly_groups;
    case InterconnectKind::kFattree: return fattree_k * fattree_k / 2;
  }
  return crossbar_count;
}

void Architecture::validate() const {
  if (crossbar_count == 0) {
    throw std::invalid_argument(
        "Architecture: crossbar_count must be >= 1");
  }
  if (neurons_per_crossbar == 0) {
    throw std::invalid_argument(
        "Architecture: neurons_per_crossbar must be >= 1");
  }
  if (cycles_per_ms == 0) {
    throw std::invalid_argument("Architecture: cycles_per_ms must be >= 1");
  }
  if (interconnect == InterconnectKind::kTree && tree_arity < 2) {
    throw std::invalid_argument("Architecture: tree_arity must be >= 2");
  }
  if (interconnect == InterconnectKind::kRing && crossbar_count < 2) {
    throw std::invalid_argument(
        "Architecture: a ring needs >= 2 crossbars");
  }
  if (interconnect == InterconnectKind::kDragonfly) {
    if (dragonfly_arity < 2 || dragonfly_groups < 2 ||
        dragonfly_global < 1) {
      throw std::invalid_argument(
          "Architecture: dragonfly needs arity >= 2, groups >= 2 and >= 1 "
          "global channel per router");
    }
    if (static_cast<std::uint64_t>(dragonfly_arity) * dragonfly_global <
        dragonfly_groups - 1) {
      throw std::invalid_argument(
          "Architecture: dragonfly needs arity * global >= groups - 1 (one "
          "full set of global channels per group)");
    }
    if (dragonfly_global > dragonfly_groups - 1) {
      throw std::invalid_argument(
          "Architecture: dragonfly needs global <= groups - 1 (more global "
          "channels per router than peer groups would create parallel "
          "links)");
    }
  }
  if (interconnect == InterconnectKind::kFattree &&
      (fattree_k < 2 || fattree_k % 2 != 0)) {
    throw std::invalid_argument(
        "Architecture: fattree_k must be even and >= 2");
  }
  const std::uint32_t tiles = interconnect_tile_count();
  if (tiles < crossbar_count) {
    throw std::invalid_argument(
        "Architecture: interconnect seats " + std::to_string(tiles) +
        " tiles but the device has " + std::to_string(crossbar_count) +
        " crossbars (grow the dragonfly/fattree parameters)");
  }
  if (chip_count == 0) {
    throw std::invalid_argument("Architecture: chip_count must be >= 1");
  }
  if (chip_count > tiles) {
    throw std::invalid_argument(
        "Architecture: more chips (" + std::to_string(chip_count) +
        ") than interconnect tiles (" + std::to_string(tiles) + ")");
  }
}

Architecture Architecture::cxquad() noexcept {
  Architecture a;
  a.crossbar_count = 4;
  a.neurons_per_crossbar = 256;
  a.interconnect = InterconnectKind::kTree;
  a.tree_arity = 4;
  a.cycles_per_ms = 1000;
  return a;
}

Architecture Architecture::sized_for(std::uint64_t neurons,
                                     std::uint32_t neurons_per_crossbar,
                                     InterconnectKind kind) {
  if (neurons_per_crossbar == 0) {
    throw std::invalid_argument("Architecture: neurons_per_crossbar must be > 0");
  }
  Architecture a;
  a.neurons_per_crossbar = neurons_per_crossbar;
  a.interconnect = kind;
  const std::uint64_t count =
      neurons == 0 ? 1 : (neurons + neurons_per_crossbar - 1) /
                             neurons_per_crossbar;
  a.crossbar_count = static_cast<std::uint32_t>(count);
  if (kind == InterconnectKind::kRing && a.crossbar_count < 2) {
    a.crossbar_count = 2;
  }
  if (kind == InterconnectKind::kDragonfly) {
    // Smallest balanced dragonfly (h = 1, g = a + 1) seating every crossbar.
    std::uint32_t arity = 2;
    while (static_cast<std::uint64_t>(arity) * (arity + 1) <
           a.crossbar_count) {
      ++arity;
    }
    a.dragonfly_arity = arity;
    a.dragonfly_groups = arity + 1;
    a.dragonfly_global = 1;
  }
  if (kind == InterconnectKind::kFattree) {
    std::uint32_t k = 2;
    while (static_cast<std::uint64_t>(k) * k / 2 < a.crossbar_count) k += 2;
    a.fattree_k = k;
  }
  return a;
}

std::string Architecture::describe() const {
  std::ostringstream out;
  out << crossbar_count << " crossbars x " << neurons_per_crossbar
      << " neurons, " << to_string(interconnect) << " interconnect";
  if (interconnect == InterconnectKind::kMesh) {
    out << " (" << mesh_width() << "x" << mesh_height() << ")";
  } else if (interconnect == InterconnectKind::kTree) {
    out << " (arity " << tree_arity << ")";
  } else if (interconnect == InterconnectKind::kDragonfly) {
    out << " (a=" << dragonfly_arity << ", g=" << dragonfly_groups
        << ", h=" << dragonfly_global << ")";
  } else if (interconnect == InterconnectKind::kFattree) {
    out << " (k=" << fattree_k << ")";
  }
  if (chip_count > 1) out << ", " << chip_count << " chips";
  return out.str();
}

}  // namespace snnmap::hw
