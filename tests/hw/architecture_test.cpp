#include "hw/architecture.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace snnmap::hw {
namespace {

TEST(Architecture, CxquadPreset) {
  const auto a = Architecture::cxquad();
  EXPECT_EQ(a.crossbar_count, 4u);
  EXPECT_EQ(a.neurons_per_crossbar, 256u);
  EXPECT_EQ(a.interconnect, InterconnectKind::kTree);
  EXPECT_EQ(a.capacity(), 1024u);
  EXPECT_TRUE(a.fits(1024));
  EXPECT_FALSE(a.fits(1025));
}

TEST(Architecture, SizedForRoundsUp) {
  const auto a = Architecture::sized_for(1000, 256, InterconnectKind::kMesh);
  EXPECT_EQ(a.crossbar_count, 4u);
  const auto b = Architecture::sized_for(1025, 256, InterconnectKind::kMesh);
  EXPECT_EQ(b.crossbar_count, 5u);
  const auto c = Architecture::sized_for(0, 256, InterconnectKind::kMesh);
  EXPECT_EQ(c.crossbar_count, 1u);
}

TEST(Architecture, SizedForRejectsZeroCapacity) {
  EXPECT_THROW(Architecture::sized_for(10, 0, InterconnectKind::kMesh),
               std::invalid_argument);
}

TEST(Architecture, MeshDimensionsCoverCrossbars) {
  for (std::uint32_t count : {1u, 2u, 3u, 4u, 5u, 7u, 9u, 12u, 16u, 17u}) {
    Architecture a;
    a.crossbar_count = count;
    EXPECT_GE(a.mesh_width() * a.mesh_height(), count) << count;
    // Squarish: width within one row/col of height.
    EXPECT_LE(a.mesh_width(), a.mesh_height() + count);
  }
}

TEST(Architecture, MeshIsSquareForPerfectSquares) {
  Architecture a;
  a.crossbar_count = 16;
  EXPECT_EQ(a.mesh_width(), 4u);
  EXPECT_EQ(a.mesh_height(), 4u);
}

TEST(InterconnectKind, StringRoundTrip) {
  EXPECT_EQ(interconnect_from_string("mesh"), InterconnectKind::kMesh);
  EXPECT_EQ(interconnect_from_string("tree"), InterconnectKind::kTree);
  EXPECT_EQ(interconnect_from_string("ring"), InterconnectKind::kRing);
  EXPECT_EQ(interconnect_from_string("dragonfly"),
            InterconnectKind::kDragonfly);
  EXPECT_EQ(interconnect_from_string("fattree"), InterconnectKind::kFattree);
  EXPECT_STREQ(to_string(InterconnectKind::kMesh), "mesh");
  EXPECT_STREQ(to_string(InterconnectKind::kTree), "tree");
  EXPECT_STREQ(to_string(InterconnectKind::kRing), "ring");
  EXPECT_STREQ(to_string(InterconnectKind::kDragonfly), "dragonfly");
  EXPECT_STREQ(to_string(InterconnectKind::kFattree), "fattree");
  EXPECT_THROW(interconnect_from_string("torus"), std::invalid_argument);
}

TEST(InterconnectKind, UnknownNameListsAllFiveKinds) {
  try {
    interconnect_from_string("torus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* kind :
         {"mesh", "tree", "ring", "dragonfly", "fattree"}) {
      EXPECT_NE(what.find(kind), std::string::npos) << kind;
    }
  }
}

TEST(Architecture, ValidateRejectsDegenerateConfigs) {
  Architecture a = Architecture::cxquad();
  EXPECT_NO_THROW(a.validate());
  a.crossbar_count = 0;
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = Architecture::cxquad();
  a.neurons_per_crossbar = 0;
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = Architecture::cxquad();
  a.cycles_per_ms = 0;
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = Architecture::cxquad();
  a.tree_arity = 1;
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = Architecture::cxquad();
  a.interconnect = InterconnectKind::kRing;
  a.crossbar_count = 1;
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = Architecture::cxquad();
  a.interconnect = InterconnectKind::kDragonfly;
  a.dragonfly_arity = 1;
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = Architecture::cxquad();
  a.interconnect = InterconnectKind::kDragonfly;
  a.dragonfly_arity = 2;
  a.dragonfly_groups = 9;
  a.dragonfly_global = 2;  // 2 * 2 < 9 - 1
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = Architecture::cxquad();
  a.interconnect = InterconnectKind::kFattree;
  a.fattree_k = 3;  // odd radix
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = Architecture::cxquad();
  a.interconnect = InterconnectKind::kFattree;
  a.fattree_k = 2;  // 2 tiles < 4 crossbars
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = Architecture::cxquad();
  a.chip_count = 0;
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = Architecture::cxquad();
  a.chip_count = 5;  // more chips than the tree's 4 tiles
  EXPECT_THROW(a.validate(), std::invalid_argument);
}

TEST(Architecture, SizedForGrowsDragonflyAndFattree) {
  const auto df =
      Architecture::sized_for(5000, 256, InterconnectKind::kDragonfly);
  EXPECT_NO_THROW(df.validate());
  EXPECT_GE(df.interconnect_tile_count(), df.crossbar_count);
  const auto ft =
      Architecture::sized_for(5000, 256, InterconnectKind::kFattree);
  EXPECT_NO_THROW(ft.validate());
  EXPECT_GE(ft.interconnect_tile_count(), ft.crossbar_count);
  // A single-crossbar ring request bumps to the 2-crossbar minimum.
  const auto ring = Architecture::sized_for(1, 256, InterconnectKind::kRing);
  EXPECT_EQ(ring.crossbar_count, 2u);
  EXPECT_NO_THROW(ring.validate());
}

TEST(Architecture, TilesPerChipSplitsEvenly) {
  Architecture a = Architecture::cxquad();
  a.chip_count = 2;
  EXPECT_NO_THROW(a.validate());
  const auto text = a.describe();
  EXPECT_NE(text.find("2 chips"), std::string::npos);
}

TEST(Architecture, DescribeMentionsShape) {
  const auto a = Architecture::cxquad();
  const auto text = a.describe();
  EXPECT_NE(text.find("4 crossbars"), std::string::npos);
  EXPECT_NE(text.find("tree"), std::string::npos);
}

}  // namespace
}  // namespace snnmap::hw
