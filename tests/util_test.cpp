#include <gtest/gtest.h>

#include <set>

#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace berkmin {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.next_u64() != b.next_u64()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six values appear over 500 draws
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, SampleDrawsDistinctValues) {
  Rng rng(13);
  const auto sample = rng.sample(20, 8);
  ASSERT_EQ(sample.size(), 8u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 8u);
  for (const auto v : sample) EXPECT_LT(v, 20u);
}

TEST(Rng, SampleMoreThanPopulationClamps) {
  Rng rng(13);
  const auto sample = rng.sample(3, 10);
  EXPECT_EQ(sample.size(), 3u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Table, AlignsColumns) {
  Table t({"Class", "Time (s)"});
  t.add_row({"Hole", "231.1"});
  t.add_row({"Fvp_unsat2.0", "6539.84"});
  const std::string rendered = t.to_string();
  EXPECT_NE(rendered.find("Class"), std::string::npos);
  EXPECT_NE(rendered.find("Fvp_unsat2.0"), std::string::npos);
  // Both data rows end aligned: every line has the same length.
  std::size_t prev = std::string::npos;
  std::size_t start = 0;
  int lines = 0;
  while (start < rendered.size()) {
    const std::size_t end = rendered.find('\n', start);
    const std::size_t len = end - start;
    if (lines >= 2) {  // data rows (header+separator may differ)
      if (prev != std::string::npos) {
        EXPECT_EQ(len, prev);
      }
      prev = len;
    }
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 4);
}

TEST(TableFormat, Seconds) {
  EXPECT_EQ(format_seconds(1.2345), "1.234");
  EXPECT_EQ(format_seconds(42.0), "42.00");
  EXPECT_EQ(format_seconds(1234.5), "1234.5");
}

TEST(TableFormat, Count) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(2577451), "2,577,451");
}

TEST(TableFormat, Ratio) { EXPECT_EQ(format_ratio(2.397), "2.40"); }

TEST(Cli, ParsesOptionsAndFlags) {
  const char* argv[] = {"prog", "--count", "5", "--verbose", "file.cnf",
                        "--rate=2.5"};
  ArgParser parser(6, argv);
  parser.add_option("count", "1", "a count");
  parser.add_option("rate", "1.0", "a rate");
  parser.add_flag("verbose", "chatty");
  ASSERT_TRUE(parser.parse()) << parser.error();
  EXPECT_EQ(parser.get_int("count"), 5);
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 2.5);
  EXPECT_TRUE(parser.has_flag("verbose"));
  ASSERT_EQ(parser.positional().size(), 1u);
  EXPECT_EQ(parser.positional()[0], "file.cnf");
}

TEST(Cli, DefaultsApply) {
  const char* argv[] = {"prog"};
  ArgParser parser(1, argv);
  parser.add_option("count", "7", "a count");
  ASSERT_TRUE(parser.parse());
  EXPECT_EQ(parser.get_int("count"), 7);
  EXPECT_FALSE(parser.has_flag("count"));
}

TEST(Cli, RejectsUnknownOption) {
  const char* argv[] = {"prog", "--bogus"};
  ArgParser parser(2, argv);
  EXPECT_FALSE(parser.parse());
  EXPECT_NE(parser.error().find("bogus"), std::string::npos);
}

TEST(Cli, RejectsMissingValue) {
  const char* argv[] = {"prog", "--count"};
  ArgParser parser(2, argv);
  parser.add_option("count", "1", "a count");
  EXPECT_FALSE(parser.parse());
}

TEST(Cli, RejectsNonNumericValueForNumericOption) {
  // An integer default makes --scale an integer option: "1e6" and "2.5"
  // would otherwise reach get_int() as 1 and 2.
  for (const char* bad : {"abc", "5x", "", "inf", " 7", "1e6", "2.5"}) {
    const char* argv[] = {"prog", "--scale", bad};
    ArgParser parser(3, argv);
    parser.add_option("scale", "2", "instance scale");
    EXPECT_FALSE(parser.parse()) << "'" << bad << "'";
    EXPECT_NE(parser.error().find("--scale"), std::string::npos);
    EXPECT_NE(parser.error().find("expects an integer"), std::string::npos);
  }
  for (const char* bad : {"abc", "1.5s", "", "nan"}) {
    const char* argv[] = {"prog", "--timeout", bad};
    ArgParser parser(3, argv);
    parser.add_option("timeout", "10.0", "seconds");
    EXPECT_FALSE(parser.parse()) << "'" << bad << "'";
    EXPECT_NE(parser.error().find("expects a number"), std::string::npos);
  }
}

TEST(Cli, AcceptsSignedAndFractionalNumbers) {
  const char* argv[] = {"prog", "--moves=-1", "--rate", "2.5e-1",
                        "--timeout", "3"};
  ArgParser parser(6, argv);
  parser.add_option("moves", "-1", "plan horizon");
  parser.add_option("rate", "0.05", "a rate");
  parser.add_option("timeout", "0.0", "seconds");
  ASSERT_TRUE(parser.parse()) << parser.error();
  EXPECT_EQ(parser.get_int("moves"), -1);
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 0.25);
  EXPECT_DOUBLE_EQ(parser.get_double("timeout"), 3.0);
}

TEST(Cli, TextOptionsTakeAnyValue) {
  const char* argv[] = {"prog", "--preset", "abc"};
  ArgParser parser(3, argv);
  parser.add_option("preset", "berkmin", "solver preset");
  ASSERT_TRUE(parser.parse()) << parser.error();
  EXPECT_EQ(parser.get_string("preset"), "abc");
}

TEST(Cli, RangesAreInclusive) {
  const auto parses = [](const char* flag, const char* value) {
    const char* argv[] = {"prog", flag, value};
    ArgParser parser(3, argv);
    parser.add_option("threads", "1", "workers", {.min = 1, .max = 4});
    parser.add_option("rate", "0.5", "a probability", {.min = 0, .max = 1});
    parser.add_option("bound", "10", "a bound", {.min = 0});
    const bool ok = parser.parse();
    EXPECT_TRUE(ok || parser.error().find(flag) != std::string::npos)
        << parser.error();
    return ok;
  };
  EXPECT_TRUE(parses("--threads", "1"));
  EXPECT_TRUE(parses("--threads", "4"));
  EXPECT_FALSE(parses("--threads", "0"));
  EXPECT_FALSE(parses("--threads", "5"));
  EXPECT_FALSE(parses("--threads", "99999999999999999999"));
  EXPECT_TRUE(parses("--rate", "0"));
  EXPECT_TRUE(parses("--rate", "1.0"));
  EXPECT_FALSE(parses("--rate", "7"));
  EXPECT_FALSE(parses("--rate", "-0.5"));
  EXPECT_TRUE(parses("--bound", "0"));
  EXPECT_FALSE(parses("--bound", "-2"));

  const char* argv[] = {"prog"};
  ArgParser parser(1, argv);
  parser.add_option("threads", "1", "workers", {.min = 1, .max = 4});
  parser.add_option("rate", "0.5", "a probability", {.min = 0, .max = 0.5});
  EXPECT_NE(parser.help("demo").find("in [1, 4]"), std::string::npos);
  EXPECT_NE(parser.help("demo").find("in [0, 0.5]"), std::string::npos);
}

TEST(Cli, HelpMentionsOptions) {
  const char* argv[] = {"prog"};
  ArgParser parser(1, argv);
  parser.add_option("timeout", "10", "per-instance timeout");
  EXPECT_NE(parser.help("demo").find("timeout"), std::string::npos);
}

}  // namespace
}  // namespace berkmin
