#include "core/partition.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace snnmap::core {
namespace {

TEST(Partition, StartsUnassigned) {
  const Partition p(5, 2);
  EXPECT_EQ(p.neuron_count(), 5u);
  EXPECT_EQ(p.crossbar_count(), 2u);
  EXPECT_FALSE(p.is_complete());
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(p.crossbar_of(i), kUnassigned);
  }
}

TEST(Partition, RequiresCrossbars) {
  EXPECT_THROW(Partition(5, 0), std::invalid_argument);
}

TEST(Partition, AssignAndComplete) {
  Partition p(3, 2);
  p.assign(0, 0);
  p.assign(1, 1);
  EXPECT_FALSE(p.is_complete());
  p.assign(2, 0);
  EXPECT_TRUE(p.is_complete());
  EXPECT_EQ(p.crossbar_of(2), 0u);
}

TEST(Partition, AssignValidatesIds) {
  Partition p(3, 2);
  EXPECT_THROW(p.assign(9, 0), std::out_of_range);
  EXPECT_THROW(p.assign(0, 5), std::out_of_range);
  p.assign(0, kUnassigned);  // un-assignment is allowed
  EXPECT_EQ(p.crossbar_of(0), kUnassigned);
}

TEST(Partition, OccupancyCountsPerCrossbar) {
  Partition p(5, 3);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  const auto occ = p.occupancy();
  EXPECT_EQ(occ[0], 2u);
  EXPECT_EQ(occ[1], 1u);
  EXPECT_EQ(occ[2], 0u);
}

TEST(Partition, CapacityCheck) {
  Partition p(4, 2);
  for (std::uint32_t i = 0; i < 4; ++i) p.assign(i, 0);
  EXPECT_FALSE(p.satisfies_capacity(3));
  EXPECT_TRUE(p.satisfies_capacity(4));
}

TEST(Partition, ValidateNamesViolation) {
  hw::Architecture arch;
  arch.crossbar_count = 2;
  arch.neurons_per_crossbar = 2;
  Partition incomplete(3, 2);
  incomplete.assign(0, 0);
  try {
    incomplete.validate(arch);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("Eq.4"), std::string::npos);
  }

  Partition overfull(3, 2);
  for (std::uint32_t i = 0; i < 3; ++i) overfull.assign(i, 0);
  try {
    overfull.validate(arch);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("Eq.5"), std::string::npos);
  }

  Partition wrong_count(3, 3);
  EXPECT_THROW(wrong_count.validate(arch), std::runtime_error);

  Partition good(3, 2);
  good.assign(0, 0);
  good.assign(1, 0);
  good.assign(2, 1);
  EXPECT_NO_THROW(good.validate(arch));
}

TEST(Partition, Equality) {
  Partition a(2, 2);
  Partition b(2, 2);
  a.assign(0, 0);
  b.assign(0, 0);
  EXPECT_EQ(a, b);
  b.assign(1, 1);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace snnmap::core
