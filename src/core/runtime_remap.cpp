#include "core/runtime_remap.hpp"

#include <stdexcept>

#include "util/log.hpp"

namespace snnmap::core {
namespace {

/// An epoch stops once the best available step improves the current cost
/// by less than this fraction (avoids paying migration cost for noise).
constexpr double kMinRelativeGain = 0.005;
/// Random swap candidates examined per migration step.
constexpr std::uint32_t kSwapCandidates = 256;

}  // namespace

RuntimeRemapper::RuntimeRemapper(hw::Architecture arch, Partition initial,
                                 RemapConfig config)
    : arch_(arch),
      partition_(std::move(initial)),
      config_(config),
      rng_(config.seed) {
  partition_.validate(arch_);
}

RemapEpochReport RuntimeRemapper::observe_phase(
    const snn::SnnGraph& phase_graph) {
  if (phase_graph.neuron_count() != partition_.neuron_count()) {
    throw std::invalid_argument(
        "RuntimeRemapper: phase graph neuron count mismatch");
  }
  ++epochs_;
  RemapEpochReport report;
  IncrementalAerCost inc(phase_graph, partition_.assignment(),
                         arch_.crossbar_count);
  report.cost_before = inc.cost();

  const std::uint32_t n = phase_graph.neuron_count();
  const std::uint32_t c = arch_.crossbar_count;
  const std::uint32_t cap = arch_.neurons_per_crossbar;

  while (report.migrations < config_.max_migrations_per_epoch) {
    // Best single move (full scan: the epoch is an offline-ish control step,
    // not a per-spike operation).
    std::uint32_t best_neuron = 0;
    CrossbarId best_to = kUnassigned;
    std::int64_t best_delta = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const CrossbarId from = inc.crossbar_of(i);
      for (CrossbarId k = 0; k < c; ++k) {
        if (k == from || crossbar_dead(k) || inc.occupancy()[k] >= cap) {
          continue;
        }
        const std::int64_t d = inc.move_delta(i, k);
        if (d < best_delta) {
          best_delta = d;
          best_neuron = i;
          best_to = k;
        }
      }
    }
    // Best of a random swap sample (escapes capacity-blocked situations;
    // costs two migrations).
    std::uint32_t swap_a = 0;
    std::uint32_t swap_b = 0;
    std::int64_t best_swap_delta = 0;
    const bool swap_affordable =
        report.migrations + 2 <= config_.max_migrations_per_epoch;
    if (swap_affordable) {
      for (std::uint32_t t = 0; t < kSwapCandidates; ++t) {
        const auto a = static_cast<std::uint32_t>(rng_.below(n));
        const auto b = static_cast<std::uint32_t>(rng_.below(n));
        const CrossbarId ca = inc.crossbar_of(a);
        const CrossbarId cb = inc.crossbar_of(b);
        if (ca == cb) continue;
        // Never swap a neuron onto a failed crossbar (stranded neurons sit
        // on dead hardware; swapping a live partner in would silence it).
        if (crossbar_dead(ca) || crossbar_dead(cb)) continue;
        const std::int64_t d1 = inc.move_delta(a, cb);
        inc.apply_move(a, cb);
        const std::int64_t d2 = inc.move_delta(b, ca);
        inc.apply_move(a, ca);  // revert probe
        if (d1 + d2 < best_swap_delta) {
          best_swap_delta = d1 + d2;
          swap_a = a;
          swap_b = b;
        }
      }
    }

    const std::int64_t chosen =
        std::min(best_delta, swap_affordable ? best_swap_delta : 0);
    if (chosen >= 0) break;  // nothing improves
    const double relative = -static_cast<double>(chosen) /
                            std::max<double>(1.0, static_cast<double>(
                                                      inc.cost()));
    if (relative < kMinRelativeGain) break;

    if (best_delta <= best_swap_delta && best_to != kUnassigned) {
      inc.apply_move(best_neuron, best_to);
      report.migrations += 1;
    } else {
      const CrossbarId ca = inc.crossbar_of(swap_a);
      const CrossbarId cb = inc.crossbar_of(swap_b);
      inc.apply_move(swap_a, cb);
      inc.apply_move(swap_b, ca);
      report.migrations += 2;
    }
  }
  report.budget_exhausted =
      report.migrations >= config_.max_migrations_per_epoch;
  report.cost_after = inc.cost();

  for (std::uint32_t i = 0; i < n; ++i) {
    partition_.assign(i, inc.crossbar_of(i));
  }
  partition_.validate(arch_);
  total_migrations_ += report.migrations;
  util::log_info("remap epoch ", epochs_, ": ", report.cost_before, " -> ",
                 report.cost_after, " packets with ", report.migrations,
                 " migrations");
  return report;
}

EvacuationReport RuntimeRemapper::evacuate(
    const std::vector<CrossbarId>& dead, const snn::SnnGraph& traffic_graph) {
  if (traffic_graph.neuron_count() != partition_.neuron_count()) {
    throw std::invalid_argument(
        "RuntimeRemapper: evacuation traffic graph neuron count mismatch");
  }
  if (dead_.empty()) dead_.assign(arch_.crossbar_count, 0);
  for (const CrossbarId k : dead) {
    if (k >= arch_.crossbar_count) {
      throw std::invalid_argument(
          "RuntimeRemapper: dead crossbar id out of range");
    }
    dead_[k] = 1;
  }

  EvacuationReport report;
  IncrementalAerCost inc(traffic_graph, partition_.assignment(),
                         arch_.crossbar_count);
  report.cost_before = inc.cost();

  const std::uint32_t n = traffic_graph.neuron_count();
  const std::uint32_t c = arch_.crossbar_count;
  const std::uint32_t cap = arch_.neurons_per_crossbar;

  // Ascending neuron order keeps evacuation deterministic; each neuron takes
  // the live crossbar with capacity that minimizes the traffic cost (forced:
  // the best non-negative delta still beats staying on dead hardware).
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!crossbar_dead(inc.crossbar_of(i))) continue;
    CrossbarId best_to = kUnassigned;
    std::int64_t best_delta = 0;
    for (CrossbarId k = 0; k < c; ++k) {
      if (dead_[k] != 0 || inc.occupancy()[k] >= cap) continue;
      const std::int64_t d = inc.move_delta(i, k);
      if (best_to == kUnassigned || d < best_delta) {
        best_delta = d;
        best_to = k;
      }
    }
    if (best_to == kUnassigned) {
      ++report.stranded;  // no live capacity anywhere; spikes will be lost
      continue;
    }
    inc.apply_move(i, best_to);
    ++report.evacuated;
  }
  report.cost_after = inc.cost();

  for (std::uint32_t i = 0; i < n; ++i) {
    partition_.assign(i, inc.crossbar_of(i));
  }
  partition_.validate(arch_);
  total_migrations_ += report.evacuated;
  util::log_info("remap evacuation: ", report.evacuated, " neurons moved, ",
                 report.stranded, " stranded; ", report.cost_before, " -> ",
                 report.cost_after, " packets");
  return report;
}

}  // namespace snnmap::core
