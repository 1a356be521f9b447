#include "core/sigmoid_bracket.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace snnmap::core::detail {
namespace {

/// Checks the bracket of v's bucket holds the exact sigmoid and that the
/// decision matches u < sigmoid(v) for the draws that could go wrong.
void expect_exact_around(const SigmoidBracket& bracket, float v) {
  const double x = static_cast<double>(v);
  const double s = sigmoid(x);
  const std::size_t b = SigmoidBracket::bucket(x);
  ASSERT_LE(b, SigmoidBracket::kBuckets) << "v = " << v;
  EXPECT_LE(bracket.lo(b), s) << "v = " << v;
  EXPECT_GE(bracket.hi(b), s) << "v = " << v;
  const double lo = bracket.lo(b);
  const double hi = bracket.hi(b);
  const std::vector<double> draws = {
      s,  std::nextafter(s, 0.0),  std::nextafter(s, 1.0),
      lo, std::nextafter(lo, 0.0), std::nextafter(lo, 1.0),
      hi, std::nextafter(hi, 0.0), std::nextafter(hi, 1.0),
      0.0, 1.0 - 0x1p-53};
  for (const double u : draws) {
    EXPECT_EQ(bracket.below(u, x), u < s) << "u = " << u << ", v = " << v;
  }
}

TEST(PsoSigmoidBracket, MatchesExactSigmoidAtEveryBucketEdge) {
  const auto& bracket = sigmoid_bracket();
  const auto vmax = static_cast<float>(kVMax);
  for (std::size_t b = 0; b <= SigmoidBracket::kBuckets; ++b) {
    const auto edge = static_cast<float>(SigmoidBracket::edge(b));
    ASSERT_EQ(static_cast<double>(edge), SigmoidBracket::edge(b));
    // Up to 4 ulps either side, inside the velocity clamp.
    float below = edge;
    float above = edge;
    for (int step = 0; step < 4; ++step) {
      below = std::nextafter(below, -vmax);
      above = std::nextafter(above, vmax);
      expect_exact_around(bracket, below);
      expect_exact_around(bracket, above);
    }
    expect_exact_around(bracket, edge);
  }
}

TEST(PsoSigmoidBracket, MatchesExactSigmoidAtSpecialVelocities) {
  const auto& bracket = sigmoid_bracket();
  const auto vmax = static_cast<float>(kVMax);
  for (const float v : {vmax, -vmax, 0.0F, -0.0F, 1e-30F, -1e-30F}) {
    expect_exact_around(bracket, v);
  }
}

TEST(PsoSigmoidBracket, MatchesExactSigmoidOnRandomDraws) {
  const auto& bracket = sigmoid_bracket();
  util::Rng rng(2025);
  std::size_t mismatches = 0;
  for (int t = 0; t < 1'000'000; ++t) {
    const auto v = static_cast<float>(rng.uniform(-kVMax, kVMax));
    const double x = static_cast<double>(v);
    const double u = rng.uniform();
    mismatches += bracket.below(u, x) != (u < sigmoid(x));
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace snnmap::core::detail
