// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in the framework (Poisson spike sources, PSO
// initialization, NoC injection jitter, synthetic workload generation) draws
// from an explicitly seeded Rng instance.  We do not use std::mt19937 through
// std::uniform_*_distribution because the distributions are
// implementation-defined and would make experiment outputs differ across
// standard libraries; instead the generator and all distributions here are
// fully specified.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace snnmap::util {

/// xoshiro256** by Blackman & Vigna, seeded via splitmix64.
/// Fast, 256-bit state, passes BigCrush; fully deterministic across platforms.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose entire stream is a pure function of `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  // next(), uniform() and below() are the per-draw hot path of the PSO
  // particle step and the NoC and spike-source streams, so they are defined
  // inline below the class; the rest of the distributions live in rng.cpp.

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next(); }

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n) using Lemire's unbiased bounded method.
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept;

  /// Standard normal deviate (Marsaglia polar method, cached pair).
  double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Exponential deviate with the given rate (lambda), i.e. mean 1/lambda.
  double exponential(double rate) noexcept;

  /// Fisher-Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; used to give each subsystem its
  /// own stream so adding draws in one module never perturbs another.
  Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

inline std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

inline double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

inline double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

inline std::uint64_t Rng::below(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Lemire's nearly-divisionless bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace snnmap::util
