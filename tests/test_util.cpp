// Unit tests for util: deterministic RNG, statistics, table rendering,
// strict numeric parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace gnnmls::util;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double mn = 1.0, mx = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
  }
  EXPECT_GE(mn, 0.0);
  EXPECT_LT(mx, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng rng(9);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++hits[static_cast<std::size_t>(v)];
  }
  for (int h : hits) EXPECT_GT(h, 700);  // roughly uniform
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, ss = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    ss += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(ss / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // overwhelmingly likely
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkDecorrelates) {
  Rng a(23);
  Rng b = a.fork();
  // The fork and the parent should produce different streams.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Stats, Summary) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 20.0);
}

TEST(Stats, CorrelationSigns) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  std::vector<double> z{10, 8, 6, 4, 2};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(correlation(x, z), -1.0, 1e-12);
  std::vector<double> c{3, 3, 3, 3, 3};
  EXPECT_EQ(correlation(x, c), 0.0);
}

TEST(Stats, BinaryMetrics) {
  const std::vector<double> probs{0.9, 0.8, 0.2, 0.1, 0.7, 0.3};
  const std::vector<int> labels{1, 1, 0, 0, 0, 1};
  const BinaryMetrics m = binary_metrics(probs, labels);
  EXPECT_EQ(m.tp, 2u);
  EXPECT_EQ(m.fp, 1u);
  EXPECT_EQ(m.tn, 2u);
  EXPECT_EQ(m.fn, 1u);
  EXPECT_NEAR(m.accuracy, 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(m.precision, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.recall, 2.0 / 3.0, 1e-12);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"a", "bbb"});
  t.add_row({"x", "y"});
  t.add_row({"long", "z"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| a    | bbb |"), std::string::npos);
  EXPECT_NE(out.find("| long | z   |"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(t.render().find("| 1 |"), std::string::npos);
}

TEST(TableFormat, Helpers) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(-1234), "-1,234");
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_pct(0.945, 1), "94.5%");
  EXPECT_EQ(fmt_si(12300.0, 1), "12.3K");
  EXPECT_EQ(fmt_si(2.5e6, 1), "2.5M");
}

TEST(Parse, U64AcceptsOnlyWholeUnsignedDecimals) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "7x", "0x10", "1.5",
                          "18446744073709551616"})
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
}

TEST(Parse, NonNegDoubleRejectsSignsGarbageAndNonFinite) {
  EXPECT_EQ(parse_nonneg_double("10"), 10.0);
  EXPECT_EQ(parse_nonneg_double("0.5"), 0.5);
  EXPECT_EQ(parse_nonneg_double("1e-3"), 1e-3);
  EXPECT_EQ(parse_nonneg_double("0"), 0.0);
  for (const char* bad : {"", "ten", "-5", "+5", "5%", " 5", "inf", "nan", "1e999"})
    EXPECT_FALSE(parse_nonneg_double(bad).has_value()) << "'" << bad << "'";
}

}  // namespace
