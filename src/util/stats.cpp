#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace snnmap::util {

void Accumulator::merge(const Accumulator& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const std::size_t total = n_ + other.n_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) /
                         static_cast<double>(total);
  mean_ = (mean_ * static_cast<double>(n_) +
           other.mean_ * static_cast<double>(other.n_)) /
          static_cast<double>(total);
  sum_ += other.sum_;
  n_ = total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::mean() const noexcept { return n_ ? mean_ : 0.0; }

double Accumulator::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace snnmap::util
