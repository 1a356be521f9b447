// Online descriptive statistics used by the metric collectors and the
// benchmark harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace snnmap::util {

/// Online accumulator for mean/variance/min/max (Welford's algorithm).
/// Safe to merge; numerically stable for long runs.
class Accumulator {
 public:
  /// Inline: called once per delivered packet copy in the NoC cycle loop.
  void add(double x) noexcept {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = x < min_ ? x : min_;
    max_ = x > max_ ? x : max_;
  }
  void merge(const Accumulator& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double sum() const noexcept { return sum_; }
  /// Mean of the observations; 0 when empty.
  double mean() const noexcept;
  /// Unbiased sample variance; 0 for fewer than two observations.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace snnmap::util
