#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace snnmap::util {
namespace {

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, ZeroSeedStillProducesEntropy) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r.next());
  EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelowBound) {
  Rng r(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowZeroIsZero) {
  Rng r(13);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, BelowOneIsZero) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(17);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, n / 10.0 * 0.1);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_FALSE(r.chance(-0.5));
    EXPECT_TRUE(r.chance(1.5));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(31);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShiftScale) {
  Rng r(37);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng r(41);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ExponentialNonPositiveRateIsZero) {
  Rng r(41);
  EXPECT_EQ(r.exponential(0.0), 0.0);
  EXPECT_EQ(r.exponential(-1.0), 0.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(53);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng r(59);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  const auto original = v;
  r.shuffle(v);
  EXPECT_NE(v, original);  // probability of identity is ~1/100!
}

TEST(Rng, KnownAnswerStream) {
  // Pins the generator and its bounded and real-valued mappings bit for bit,
  // so every seeded stream (NoC jitter, Poisson sources, workload
  // generators, PSO) stays reproducible across refactors of Rng.
  constexpr std::uint64_t kSeed = 20240917;
  const std::uint64_t next[8] = {
      0xF4FB4B524DF85D22ULL, 0xFC1FC909B04CF43BULL, 0x2EC85AC212C41908ULL,
      0x8C7662D9518C3588ULL, 0xD9CD1AD4256F25A7ULL, 0x54A8E9E14E840215ULL,
      0xC5A3D9562C991C03ULL, 0x3BD6AA3EE194F2C5ULL};
  const double uniform[8] = {
      0x1.e9f696a49bf0bp-1, 0x1.f83f92136099ep-1, 0x1.7642d6109620cp-3,
      0x1.18ecc5b2a3186p-1, 0x1.b39a35a84ade4p-1, 0x1.52a3a7853a1p-2,
      0x1.8b47b2ac59323p-1, 0x1.deb551f70ca78p-3};
  const std::uint64_t below7[8] = {6, 6, 1, 3, 5, 2, 5, 1};
  // n = 2^63 + 1 rejects about half of all raw draws: these 8 values take
  // 17 draws, so Lemire's rejection loop is on the pinned path.
  const std::uint64_t below_huge[8] = {
      0x7A7DA5A926FC2E91ULL, 0x463B316CA8C61AC4ULL, 0x2A5474F0A742010AULL,
      0x1DEB551F70CA7962ULL, 0x64B9E1819CCBDA53ULL, 0x1AF493A56F8E53A1ULL,
      0x4602BAD92E2C242EULL, 0x58174E49B523263EULL};
  Rng a(kSeed), b(kSeed), c(kSeed), d(kSeed);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.next(), next[i]) << "next #" << i;
    EXPECT_EQ(b.uniform(), uniform[i]) << "uniform #" << i;
    EXPECT_EQ(c.below(7), below7[i]) << "below(7) #" << i;
    EXPECT_EQ(d.below((1ULL << 63) + 1), below_huge[i])
        << "below(2^63 + 1) #" << i;
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(61);
  Rng child = parent.fork();
  // The child stream should not equal the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace snnmap::util
