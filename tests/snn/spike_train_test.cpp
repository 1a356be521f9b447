#include "snn/spike_train.hpp"

#include <gtest/gtest.h>

namespace snnmap::snn {
namespace {

TEST(SpikeTrain, ValidityChecks) {
  EXPECT_TRUE(is_valid_train({}));
  EXPECT_TRUE(is_valid_train({1.0}));
  EXPECT_TRUE(is_valid_train({1.0, 1.0, 2.0}));
  EXPECT_FALSE(is_valid_train({2.0, 1.0}));
  EXPECT_FALSE(is_valid_train({-1.0, 2.0}));
}

TEST(SpikeTrain, IsiOfShortTrainsIsEmpty) {
  EXPECT_TRUE(inter_spike_intervals({}).empty());
  EXPECT_TRUE(inter_spike_intervals({3.0}).empty());
}

TEST(SpikeTrain, IsiValues) {
  const auto isis = inter_spike_intervals({0.0, 10.0, 15.0, 35.0});
  ASSERT_EQ(isis.size(), 3u);
  EXPECT_DOUBLE_EQ(isis[0], 10.0);
  EXPECT_DOUBLE_EQ(isis[1], 5.0);
  EXPECT_DOUBLE_EQ(isis[2], 20.0);
}

TEST(SpikeTrain, MeanRate) {
  EXPECT_DOUBLE_EQ(mean_rate_hz({0.0, 100.0, 200.0, 300.0, 400.0}, 1000.0),
                   5.0);
  EXPECT_DOUBLE_EQ(mean_rate_hz({}, 1000.0), 0.0);
  EXPECT_DOUBLE_EQ(mean_rate_hz({1.0}, 0.0), 0.0);
}

TEST(SpikeTrain, WindowCounting) {
  const SpikeTrain t{1.0, 2.0, 3.0, 10.0, 20.0};
  EXPECT_EQ(spikes_in_window(t, 0.0, 5.0), 3u);
  EXPECT_EQ(spikes_in_window(t, 2.0, 10.0), 2u);  // [2, 10): 2, 3
  EXPECT_EQ(spikes_in_window(t, 10.0, 21.0), 2u);
  EXPECT_EQ(spikes_in_window(t, 50.0, 60.0), 0u);
  EXPECT_EQ(spikes_in_window(t, 5.0, 5.0), 0u);
}

TEST(SpikeTrain, CvOfRegularTrainIsZero) {
  SpikeTrain regular;
  for (int i = 0; i < 50; ++i) regular.push_back(i * 10.0);
  EXPECT_NEAR(isi_coefficient_of_variation(regular), 0.0, 1e-12);
}

TEST(SpikeTrain, CvUndefinedCases) {
  EXPECT_EQ(isi_coefficient_of_variation({}), 0.0);
  EXPECT_EQ(isi_coefficient_of_variation({1.0, 2.0}), 0.0);  // single ISI
}

TEST(SpikeTrain, MergeKeepsOrderAndSize) {
  const SpikeTrain a{1.0, 5.0, 9.0};
  const SpikeTrain b{2.0, 5.0, 8.0};
  const SpikeTrain merged = merge_trains(a, b);
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_TRUE(is_valid_train(merged));
  EXPECT_DOUBLE_EQ(merged.front(), 1.0);
  EXPECT_DOUBLE_EQ(merged.back(), 9.0);
}

TEST(SpikeTrain, MergeWithEmpty) {
  const SpikeTrain a{1.0, 2.0};
  EXPECT_EQ(merge_trains(a, {}), a);
  EXPECT_EQ(merge_trains({}, a), a);
}

}  // namespace
}  // namespace snnmap::snn
