#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace snnmap::util {
namespace {

TEST(Config, ParsesFlatScalars) {
  const auto cfg = Config::parse(
      "name: noxim\n"
      "buffer_depth: 4\n"
      "rate: 2.5\n"
      "multicast: true\n");
  EXPECT_EQ(cfg.get_string("name"), "noxim");
  EXPECT_EQ(cfg.uint_or("buffer_depth", 0u), 4u);
  EXPECT_EQ(cfg.get_double("rate"), 2.5);
  EXPECT_EQ(cfg.get_bool("multicast"), true);
}

TEST(Config, ParsesNestedSection) {
  const auto cfg = Config::parse(
      "energy:\n"
      "  link_hop_pj: 10.5\n"
      "  router_flit_pj: 6\n"
      "noc:\n"
      "  buffer_depth: 8\n");
  EXPECT_EQ(cfg.get_double("energy.link_hop_pj"), 10.5);
  EXPECT_EQ(cfg.get_double("energy.router_flit_pj"), 6.0);
  EXPECT_EQ(cfg.uint_or("noc.buffer_depth", 0u), 8u);
}

TEST(Config, IgnoresCommentsAndBlankLines) {
  const auto cfg = Config::parse(
      "# power model\n"
      "\n"
      "a: 1  # trailing comment\n"
      "   \n"
      "b: 2\n");
  EXPECT_EQ(cfg.get_string("a"), "1");
  EXPECT_EQ(cfg.get_string("b"), "2");
}

TEST(Config, QuotedStringsKeepHashAndSpaces) {
  const auto cfg = Config::parse("label: \"mesh # 4x4\"\n");
  EXPECT_EQ(cfg.get_string("label"), "mesh # 4x4");
}

TEST(Config, MissingKeyIsNullopt) {
  const auto cfg = Config::parse("a: 1\n");
  EXPECT_FALSE(cfg.get_string("zzz").has_value());
  EXPECT_FALSE(cfg.get_double("zzz").has_value());
  EXPECT_FALSE(cfg.contains("zzz"));
  EXPECT_TRUE(cfg.contains("a"));
}

TEST(Config, DefaultsApplyOnlyWhenAbsent) {
  const auto cfg = Config::parse("x: 3\n");
  EXPECT_EQ(cfg.uint_or("x", 99u), 3u);
  EXPECT_EQ(cfg.uint_or("y", 99u), 99u);
  EXPECT_EQ(cfg.double_or("y", 1.5), 1.5);
  EXPECT_EQ(cfg.bool_or("y", true), true);
}

TEST(Config, TypeErrorsThrow) {
  const auto cfg = Config::parse("word: hello\n");
  EXPECT_THROW((void)cfg.get_double("word"), std::runtime_error);
  EXPECT_THROW((void)cfg.uint_or("word", 0u), std::runtime_error);
  EXPECT_THROW((void)cfg.get_bool("word"), std::runtime_error);
}

TEST(Config, UintOrRangeFollowsTheFieldType) {
  const auto cfg = Config::parse(
      "max8: 255\nover8: 256\nneg: -1\nplus: +1\nblank: 3 x\n");
  EXPECT_EQ(cfg.uint_or("max8", std::uint8_t{0}), 255u);
  EXPECT_THROW((void)cfg.uint_or("over8", std::uint8_t{0}),
               std::runtime_error);
  EXPECT_EQ(cfg.uint_or("over8", std::uint16_t{0}), 256u);
  for (const char* key : {"neg", "plus", "blank"}) {
    EXPECT_THROW((void)cfg.uint_or(key, std::uint64_t{0}), std::runtime_error)
        << key;
  }
}

TEST(Config, BoolAcceptsCommonSpellings) {
  const auto cfg = Config::parse(
      "a: yes\nb: NO\nc: On\nd: off\ne: 1\nf: 0\n");
  EXPECT_EQ(cfg.get_bool("a"), true);
  EXPECT_EQ(cfg.get_bool("b"), false);
  EXPECT_EQ(cfg.get_bool("c"), true);
  EXPECT_EQ(cfg.get_bool("d"), false);
  EXPECT_EQ(cfg.get_bool("e"), true);
  EXPECT_EQ(cfg.get_bool("f"), false);
}

TEST(Config, RejectsTabs) {
  EXPECT_THROW(Config::parse("a:\n\tb: 1\n"), std::runtime_error);
}

TEST(Config, RejectsBadIndent) {
  EXPECT_THROW(Config::parse("a:\n   b: 1\n"), std::runtime_error);
  EXPECT_THROW(Config::parse(" a: 1\n"), std::runtime_error);
}

TEST(Config, RejectsMissingColon) {
  EXPECT_THROW(Config::parse("just a line\n"), std::runtime_error);
}

TEST(Config, RejectsNestedWithoutSection) {
  EXPECT_THROW(Config::parse("  a: 1\n"), std::runtime_error);
}

TEST(Config, RejectsDeepNesting) {
  EXPECT_THROW(Config::parse("a:\n  b:\n"), std::runtime_error);
}

TEST(Config, RejectsDuplicateKeys) {
  // A reopened section setting a key again names the key and its line.
  try {
    Config::parse("flow:\n  seed: 1\npso:\n  swarm_size: 5\nflow:\n"
                  "  seed: 2\n");
    FAIL() << "duplicate key loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "config: line 6: duplicate key 'flow.seed'");
  }
  EXPECT_THROW(Config::parse("a: 1\na: 1\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("flow.seed: 1\nflow:\n  seed: 2\n"),
               std::runtime_error);
  // A section may be reopened to set other keys.
  const auto cfg = Config::parse("a:\n  x: 1\nb: 2\na:\n  y: 3\n");
  EXPECT_EQ(cfg.get_string("a.x"), "1");
  EXPECT_EQ(cfg.get_string("a.y"), "3");
}

TEST(Config, SetAndDumpRoundTrip) {
  Config cfg;
  cfg.set("energy.link_hop_pj", "10.5");
  cfg.set("name", "x");
  const auto reparsed = Config::parse(cfg.dump());
  EXPECT_EQ(reparsed.get_double("energy.link_hop_pj"), 10.5);
  EXPECT_EQ(reparsed.get_string("name"), "x");
}

TEST(Config, KeysAreSorted) {
  Config cfg;
  cfg.set("b", "1");
  cfg.set("a", "2");
  const auto keys = cfg.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
}

TEST(Config, LoadFileMissingThrows) {
  EXPECT_THROW(Config::load_file("/nonexistent/path.yaml"),
               std::runtime_error);
}

}  // namespace
}  // namespace snnmap::util
