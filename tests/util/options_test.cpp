#include "util/options.hpp"

#include <gtest/gtest.h>

namespace asyncgt {
namespace {

options parse(std::initializer_list<const char*> args,
              std::initializer_list<std::string_view> flags = {}) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return options(static_cast<int>(argv.size()), argv.data(), flags);
}

TEST(Options, EqualsForm) {
  const auto o = parse({"--scale=20", "--device=intel"});
  EXPECT_EQ(o.get_int("scale", 0), 20);
  EXPECT_EQ(o.get_string("device", ""), "intel");
}

TEST(Options, SpaceForm) {
  const auto o = parse({"--scale", "18"});
  EXPECT_EQ(o.get_int("scale", 0), 18);
}

TEST(Options, BooleanFlagForm) {
  const auto o = parse({"--verbose"});
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_TRUE(o.has("verbose"));
  EXPECT_FALSE(o.has("quiet"));
}

TEST(Options, NamedFlagLeavesNextTokenPositional) {
  // `agt_tool bfs --sem g.agt`: the flag must not swallow the file name.
  const auto o = parse({"bfs", "--sem", "g.agt", "--threads", "4"}, {"sem"});
  EXPECT_TRUE(o.get_bool("sem", false));
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[1], "g.agt");
  EXPECT_EQ(o.get_int("threads", 0), 4);
}

TEST(Options, NamedFlagTakesEqualsForm) {
  const auto o = parse({"--sem=false", "g.agt"}, {"sem"});
  EXPECT_FALSE(o.get_bool("sem", true));
  ASSERT_EQ(o.positional().size(), 1u);
}

TEST(Options, FallbacksWhenAbsent) {
  const auto o = parse({});
  EXPECT_EQ(o.get_int("missing", 7), 7);
  EXPECT_EQ(o.get_string("missing", "x"), "x");
  EXPECT_DOUBLE_EQ(o.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(o.get_bool("missing", false));
}

TEST(Options, DoubleParsing) {
  const auto o = parse({"--scale-factor=0.05"});
  EXPECT_DOUBLE_EQ(o.get_double("scale-factor", 1.0), 0.05);
}

TEST(Options, IntListParsing) {
  const auto o = parse({"--threads=1,2,4,8"});
  const auto v = o.get_int_list("threads", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[3], 8);
}

TEST(Options, IntListFallback) {
  const auto o = parse({});
  const auto v = o.get_int_list("threads", {16, 32});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 32);
}

TEST(Options, PositionalArguments) {
  const auto o = parse({"input.agt", "--scale=4", "output.agt"});
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "input.agt");
  EXPECT_EQ(o.positional()[1], "output.agt");
}

TEST(Options, MalformedIntThrows) {
  const auto o = parse({"--scale=abc"});
  EXPECT_THROW(o.get_int("scale", 0), std::invalid_argument);
}

TEST(Options, MalformedBoolThrows) {
  const auto o = parse({"--flag=maybe"});
  EXPECT_THROW(o.get_bool("flag", false), std::invalid_argument);
}

TEST(Options, BoolAcceptsCommonSpellings) {
  const auto o = parse({"--a=1", "--b=no", "--c=yes", "--d=false"});
  EXPECT_TRUE(o.get_bool("a", false));
  EXPECT_FALSE(o.get_bool("b", true));
  EXPECT_TRUE(o.get_bool("c", false));
  EXPECT_FALSE(o.get_bool("d", true));
}

}  // namespace
}  // namespace asyncgt
