// Bytes helpers, RNG determinism/distribution, and statistics utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace myrtus::util {
namespace {

TEST(Bytes, HexRoundtrip) {
  const Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(ToHex(b), "0001abff");
  auto back = FromHex("0001abff");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, b);
}

TEST(Bytes, FromHexAcceptsUppercase) {
  auto b = FromHex("DEADBEEF");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ToHex(*b), "deadbeef");
}

TEST(Bytes, FromHexRejectsBadInput) {
  EXPECT_FALSE(FromHex("abc").ok());   // odd length
  EXPECT_FALSE(FromHex("zz").ok());    // non-hex
}

TEST(Bytes, BigEndianLoadStore) {
  std::uint8_t buf[8];
  StoreBe64(0x0102030405060708ULL, buf);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0x08);
  EXPECT_EQ(LoadBe64(buf), 0x0102030405060708ULL);
  EXPECT_EQ(LoadBe32(buf), 0x01020304u);
}

TEST(Bytes, ConstantTimeEqual) {
  EXPECT_TRUE(ConstantTimeEqual({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(ConstantTimeEqual({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(ConstantTimeEqual({1, 2}, {1, 2, 3}));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, StreamNamesDecorrelate) {
  Rng a(123, "net");
  Rng b(123, "sched");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.NextBounded(13), 13u);
  }
  EXPECT_EQ(r.NextBounded(0), 0u);
  EXPECT_EQ(r.NextBounded(1), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

/// Sample mean and (n-1) standard deviation, computed two-pass.
struct Moments {
  double mean = 0.0;
  double stddev = 0.0;
};
Moments MomentsOf(const std::vector<double>& xs) {
  Moments m;
  for (const double x : xs) m.mean += x;
  m.mean /= static_cast<double>(xs.size());
  double m2 = 0.0;
  for (const double x : xs) m2 += (x - m.mean) * (x - m.mean);
  m.stddev = std::sqrt(m2 / static_cast<double>(xs.size() - 1));
  return m;
}

TEST(Rng, GaussianMoments) {
  Rng r(42);
  std::vector<double> xs;
  for (int i = 0; i < 200000; ++i) xs.push_back(r.NextGaussian());
  const Moments m = MomentsOf(xs);
  EXPECT_NEAR(m.mean, 0.0, 0.02);
  EXPECT_NEAR(m.stddev, 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(43);
  Samples s;
  for (int i = 0; i < 100000; ++i) s.Add(r.NextExponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng r(44);
  Samples small, large;
  for (int i = 0; i < 50000; ++i) small.Add(static_cast<double>(r.NextPoisson(3.0)));
  for (int i = 0; i < 50000; ++i) large.Add(static_cast<double>(r.NextPoisson(120.0)));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 120.0, 1.0);
}

TEST(Samples, Quantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_NEAR(s.p50(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.max(), 100.0, 1e-9);
  EXPECT_NEAR(s.p95(), 95.05, 0.01);
}

TEST(Samples, EmptyIsZero) {
  Samples s;
  EXPECT_EQ(s.p50(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Fnv1a64, StableAndDistinct) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
}

}  // namespace
}  // namespace myrtus::util
