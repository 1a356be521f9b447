#include "util/rng.hpp"

#include <cmath>

namespace snnmap::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // splitmix64 expansion guarantees a non-zero state for any seed.
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * f;
  has_cached_normal_ = true;
  return u * f;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) noexcept {
  if (rate <= 0.0) return 0.0;
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - uniform()) / rate;
}

Rng Rng::fork() noexcept {
  return Rng{next() ^ 0xD1B54A32D192ED03ULL};
}

}  // namespace snnmap::util
