#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>

#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace ugnirt {
namespace {

using namespace ugnirt::literals;

// ---------------------------------------------------------------- units ----

TEST(Units, Conversions) {
  EXPECT_EQ(microseconds(1.5), 1500);
  EXPECT_EQ(milliseconds(2.0), 2'000'000);
  EXPECT_EQ(seconds(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'000'000), 2.0);
  EXPECT_EQ(3_us, 3000);
  EXPECT_EQ(2_ms, 2'000'000);
}

TEST(Units, TransferTimeRoundsUpAndHandlesZeroBandwidth) {
  EXPECT_EQ(transfer_time(1000, 1.0), 1000);
  EXPECT_EQ(transfer_time(1001, 2.0), 501);  // 500.5 rounds up
  EXPECT_EQ(transfer_time(0, 5.0), 0);
  EXPECT_EQ(transfer_time(12345, 0.0), 0);
}

TEST(Units, GbPerSecondIsBytesPerNanosecond) {
  EXPECT_DOUBLE_EQ(gb_per_s(6.0), 6.0);
  // 6 GB/s moves 6 KB in 1 us.
  EXPECT_EQ(transfer_time(6000, gb_per_s(6.0)), 1000);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (std::uint32_t bound : {1u, 2u, 3u, 17u, 1000u, 1u << 30}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r(99);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(r.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DerivedStreamsAreIndependentAndStable) {
  Rng root(1234);
  Rng a1 = root.derive(1);
  Rng a2 = root.derive(1);
  Rng b = root.derive(2);
  EXPECT_EQ(a1.next_u64(), a2.next_u64());
  EXPECT_NE(a1.next_u64(), b.next_u64());
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng r(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(10.0);
  double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.5);
}

// --------------------------------------------------------------- config ----

TEST(Config, ParsesKeyValuesCommentsAndBlanks) {
  Config c;
  ASSERT_TRUE(c.parse_string(
      "# a comment\n"
      "alpha = 1\n"
      "\n"
      "beta=2.5  # trailing comment\n"
      "  name  =  hello world  \n"));
  EXPECT_EQ(c.get_int_or("alpha", -1), 1);
  EXPECT_DOUBLE_EQ(c.get_double_or("beta", -1.0), 2.5);
  EXPECT_EQ(c.get_string_or("name", ""), "hello world");
  EXPECT_EQ(c.size(), 3u);
}

TEST(Config, RejectsMalformedLines) {
  Config c;
  EXPECT_FALSE(c.parse_string("this has no equals\n"));
  EXPECT_NE(c.last_error().find("line 1"), std::string::npos);
  Config c2;
  EXPECT_FALSE(c2.parse_string("= value\n"));
}

TEST(Config, TypedGettersRejectGarbage) {
  Config c;
  ASSERT_TRUE(c.parse_string("x = notanumber\ny = 12abc\n"));
  EXPECT_FALSE(c.get_int("x").has_value());
  EXPECT_FALSE(c.get_int("y").has_value());
  EXPECT_FALSE(c.get_double("x").has_value());
  EXPECT_EQ(c.get_int_or("x", 7), 7);
}

TEST(Config, BoolParsing) {
  Config c;
  ASSERT_TRUE(c.parse_string(
      "a = true\nb = FALSE\nc = 1\nd = off\ne = maybe\n"));
  EXPECT_TRUE(c.get_bool_or("a", false));
  EXPECT_FALSE(c.get_bool_or("b", true));
  EXPECT_TRUE(c.get_bool_or("c", false));
  EXPECT_FALSE(c.get_bool_or("d", true));
  EXPECT_TRUE(c.get_bool_or("e", true));  // unparsable -> fallback
}

TEST(Config, SetOverridesAndDumpIsSorted) {
  Config c;
  c.set("z", "1");
  c.set("a", "2");
  c.set("z", "3");
  EXPECT_EQ(c.dump(), "a = 2\nz = 3\n");
}

struct TwoKnobs {
  std::int64_t some = 1;
  std::uint32_t extra = 2;

  template <class Self, class F>
  static void for_each_knob(Self& s, F&& f) {
    f("some.key", s.some);
    f("extra.key", s.extra);
  }
};

TEST(Config, EnvOverrideAppliesToKnownAndExtraKeys) {
  TwoKnobs k;
  ::setenv("UGNIRT_SOME_KEY", "42", 1);
  ::setenv("UGNIRT_EXTRA_KEY", "7", 1);
  apply_env_knobs(k);
  EXPECT_EQ(k.some, 42);
  EXPECT_EQ(k.extra, 7u);
  ::unsetenv("UGNIRT_SOME_KEY");
  ::unsetenv("UGNIRT_EXTRA_KEY");
}

// Only decimal and 0x hex count: a leading zero is decimal, not octal.
TEST(Config, GetIntReadsDecimalAndHexOnly) {
  Config c;
  ASSERT_TRUE(c.parse_string(
      "lead = 0105\nhex = 0x45\nneg = -0x10\neight = 08\nzero = 0\n"
      "oct = 0o7\nplus = +5\n"));
  EXPECT_EQ(c.get_int("lead"), 105);
  EXPECT_EQ(c.get_int("hex"), 69);
  EXPECT_EQ(c.get_int("neg"), -16);
  EXPECT_EQ(c.get_int("eight"), 8);
  EXPECT_EQ(c.get_int("zero"), 0);
  EXPECT_FALSE(c.get_int("oct").has_value());
  EXPECT_FALSE(c.get_int("plus").has_value());
}

TEST(Config, IntegerKnobsTakeTheirTypesFullRange) {
  std::uint64_t u64 = 5;
  EXPECT_TRUE(parse_value("18446744073709551615", &u64));
  EXPECT_EQ(u64, UINT64_MAX);
  EXPECT_TRUE(parse_value("0xF000000000000000", &u64));
  EXPECT_EQ(u64, 0xF000000000000000ull);
  EXPECT_FALSE(parse_value("18446744073709551616", &u64));
  EXPECT_FALSE(parse_value("-1", &u64));  // no wrap-around
  EXPECT_EQ(u64, 0xF000000000000000ull);  // failures leave the field alone

  std::uint32_t u32 = 5;
  EXPECT_TRUE(parse_value("4294967295", &u32));
  EXPECT_EQ(u32, UINT32_MAX);
  EXPECT_FALSE(parse_value("4294967296", &u32));
  EXPECT_FALSE(parse_value("-1", &u32));
  EXPECT_FALSE(parse_value("1k", &u32));
  EXPECT_FALSE(parse_value("", &u32));
  EXPECT_EQ(u32, UINT32_MAX);

  std::int64_t i64 = 0;
  EXPECT_TRUE(parse_value("-9223372036854775808", &i64));
  EXPECT_EQ(i64, INT64_MIN);
  EXPECT_FALSE(parse_value("9223372036854775808", &i64));
  int i = 0;
  EXPECT_TRUE(parse_value("-2147483648", &i));
  EXPECT_EQ(i, INT32_MIN);
  EXPECT_FALSE(parse_value("2147483648", &i));
}

struct Mixed {
  double d = 1.0 / 3.0;
  double tiny = 4e-7;
  std::uint64_t seed = 0x8000000000000001ull;
  bool flag = true;
  std::string name = "a b";

  template <class Self, class F>
  static void for_each_knob(Self& s, F&& f) {
    f("m.d", s.d);
    f("m.tiny", s.tiny);
    f("m.seed", s.seed);
    f("m.flag", s.flag);
    f("m.name", s.name);
  }
};

TEST(Config, WrittenKnobsReadBackBitExact) {
  Config cfg;
  write_knobs(Mixed{}, cfg);
  Mixed back{0.0, 0.0, 0, false, ""};
  read_knobs(cfg, back);
  EXPECT_EQ(back.d, 1.0 / 3.0);
  EXPECT_EQ(back.tiny, 4e-7);
  EXPECT_EQ(back.seed, 0x8000000000000001ull);
  EXPECT_TRUE(back.flag);
  EXPECT_EQ(back.name, "a b");
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, RunningStatBasics) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(Stats, EmptyRunningStatIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, SamplesPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Stats, HistogramBinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(100.0);  // clamps to bin 9
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

}  // namespace
}  // namespace ugnirt
