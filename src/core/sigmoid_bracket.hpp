// Exact Eq. 3 bit decisions without a per-dimension exp.
//
// PSO binarization sets bit x_{i,k} when a uniform draw u falls below
// sigmoid(v_{i,k}) (Eqs. 2-3).  Velocities are clamped to [-kVMax, kVMax],
// so one read-only table of kBuckets brackets over that range — bucket b
// holds lo <= sigmoid(v) <= hi for every v in it — settles almost every
// draw with two comparisons: u < lo sets the bit, u >= hi clears it.  Only
// a draw that lands inside its bracket (0.16% of them on the Table I apps
// of the paper-flow benchmark) evaluates the sigmoid, so every decision
// equals u < sigmoid(v) bit for bit.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>

namespace snnmap::core::detail {

inline constexpr double kVMax = 4.0;  ///< velocity clamp (sigmoid saturation)

/// Eq. 2: the probability that a dimension's bit is set.
inline double sigmoid(double v) noexcept { return 1.0 / (1.0 + std::exp(-v)); }

class SigmoidBracket {
 public:
  static constexpr double kPerUnit = 128.0;  ///< buckets per unit velocity
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(2.0 * kVMax * kPerUnit);
  /// Slack each bracket leaves around the sigmoid of its edges.  It covers
  /// the ulp-level error of exp and the rounding of bucket()'s sum for
  /// velocities of tiny magnitude, both below 1e-15.
  static constexpr double kMargin = 1e-12;

  SigmoidBracket() noexcept {
    for (std::size_t b = 0; b < table_.size(); ++b) {
      table_[b] = {sigmoid(edge(b)) - kMargin, sigmoid(edge(b + 1)) + kMargin};
    }
  }

  /// Lower velocity edge of bucket `b`: -kVMax + b / kPerUnit.
  static double edge(std::size_t b) noexcept {
    return -kVMax + static_cast<double>(b) / kPerUnit;
  }
  /// Bucket of velocity `v` in [-kVMax, kVMax]; kVMax itself maps to
  /// kBuckets, a bucket of its own.
  static std::size_t bucket(double v) noexcept {
    return static_cast<std::size_t>((v + kVMax) * kPerUnit);
  }
  double lo(std::size_t b) const noexcept { return table_[b].lo; }
  double hi(std::size_t b) const noexcept { return table_[b].hi; }

  /// u < sigmoid(v) for |v| <= kVMax.  The two comparisons are summed
  /// rather than branched on: each is a coin flip the predictor cannot
  /// learn, while the sum's rare middle value is predicted well.
  bool below(double u, double v) const noexcept {
    const Bracket& br = table_[bucket(v)];
    const int s = static_cast<int>(u < br.lo) + static_cast<int>(u < br.hi);
    if (s == 1) [[unlikely]] {
      return u < sigmoid(v);
    }
    return s == 2;
  }

 private:
  struct Bracket {
    double lo, hi;
  };
  std::array<Bracket, kBuckets + 1> table_{};
};

/// The one table every PSO worker reads; built on first use.
inline const SigmoidBracket& sigmoid_bracket() {
  static const SigmoidBracket table;
  return table;
}

}  // namespace snnmap::core::detail
