#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace snnmap::util {
namespace {

TEST(Accumulator, EmptyDefaults) {
  Accumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(5.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_EQ(acc.mean(), 5.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.min(), 5.0);
  EXPECT_EQ(acc.max(), 5.0);
}

TEST(Accumulator, KnownMoments) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 4.571428571, 1e-9);  // unbiased
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Accumulator all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.37 * i - 3.0;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Accumulator, MergeWithEmptyIsIdentity) {
  Accumulator a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

}  // namespace
}  // namespace snnmap::util
