#include "randgen/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "support/stats.h"

namespace mmw::randgen {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(RngTest, ForkProducesIndependentButDeterministicStreams) {
  Rng parent1(77), parent2(77);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1.uniform(), child2.uniform());
  // Child differs from a fresh same-seed parent stream.
  Rng parent3(77);
  Rng child3 = parent3.fork();
  EXPECT_NE(child3.uniform(), Rng(77).uniform());
}

TEST(RngTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const real x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
  EXPECT_THROW(rng.uniform(1.0, 0.0), precondition_error);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(*seen.begin(), 3u);
  EXPECT_EQ(*seen.rbegin(), 7u);
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(3);
  const int n = 20000;
  real sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const real x = rng.normal(1.0, 2.0);
    sum += x;
    sumsq += x * x;
  }
  const real mean = sum / n;
  const real var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ComplexNormalVarianceSplit) {
  Rng rng(4);
  const int n = 20000;
  real pw = 0.0, re = 0.0, im = 0.0;
  for (int i = 0; i < n; ++i) {
    const cx z = rng.complex_normal(3.0);
    pw += std::norm(z);
    re += z.real() * z.real();
    im += z.imag() * z.imag();
  }
  EXPECT_NEAR(pw / n, 3.0, 0.15);
  EXPECT_NEAR(re / n, 1.5, 0.1);
  EXPECT_NEAR(im / n, 1.5, 0.1);
}

TEST(RngTest, ChiSquaredMean) {
  Rng rng(5);
  const int n = 20000;
  real sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.chi_squared(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
  EXPECT_THROW(rng.chi_squared(0.0), precondition_error);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(6);
  const int n = 20000;
  real sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 0.5, 0.05);
  EXPECT_THROW(rng.exponential(0.0), precondition_error);
}

TEST(RngTest, PoissonMean) {
  Rng rng(7);
  const int n = 20000;
  real sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<real>(rng.poisson(1.8));
  EXPECT_NEAR(sum / n, 1.8, 0.1);
}

// -- fixed-seed moment and Kolmogorov–Smirnov tests of the samplers ------

constexpr int kLawDraws = 20000;
constexpr real kAlpha = 0.001;

template <class Draw>
std::vector<real> draws(Draw draw) {
  std::vector<real> xs(kLawDraws);
  for (real& x : xs) x = draw();
  return xs;
}

/// √n·sup|F_n − F| ≤ c(α) against a continuous CDF.
template <class Cdf>
::testing::AssertionResult ks_fits(const std::vector<real>& xs, Cdf cdf) {
  const real d = test::ks_statistic(xs, cdf);
  if (std::sqrt(static_cast<real>(xs.size())) * d <= test::ks_critical(kAlpha))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "KS D = " << d;
}

/// The same for an integer law with CDF `cdf(k)` = P(X ≤ k): the sup is
/// taken at the integers, which keeps the test conservative.
template <class Cdf>
::testing::AssertionResult ks_fits_integer(const std::vector<real>& xs,
                                           Cdf cdf) {
  std::vector<real> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const real n = static_cast<real>(sorted.size());
  real d = 0.0;
  std::size_t below = 0;
  for (real k = sorted.front() - 1.0; k <= sorted.back(); k += 1.0) {
    while (below < sorted.size() && sorted[below] <= k) ++below;
    d = std::max(d, std::abs(static_cast<real>(below) / n - cdf(k)));
  }
  if (std::sqrt(n) * d <= test::ks_critical(kAlpha))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "KS D = " << d;
}

/// Sample mean within 5 standard errors of `mean`; sample variance within
/// 5% of `variance`, several of its standard errors at 20k draws.
void expect_moments(const std::vector<real>& xs, real mean, real variance) {
  const test::Moments got = test::moments(xs);
  const real n = static_cast<real>(xs.size());
  EXPECT_NEAR(got.mean, mean, 5.0 * std::sqrt(variance / n));
  EXPECT_NEAR(got.variance, variance, 0.05 * variance);
}

TEST(RngLawTest, GammaAtProbeShapes) {
  Rng rng(5);
  for (const real shape : {1.0, 4.0, 8.0}) {
    SCOPED_TRACE(shape);
    const real scale = 3.0 / shape;  // the probe law's λ/F at λ = 3
    const auto xs = draws([&] { return rng.gamma(shape, scale); });
    expect_moments(xs, shape * scale, shape * scale * scale);
    EXPECT_TRUE(ks_fits(xs, [&](real x) {
      return test::gamma_cdf(shape, scale, x);
    }));
  }
  EXPECT_THROW(rng.gamma(0.0), precondition_error);
  EXPECT_THROW(rng.gamma(1.0, 0.0), precondition_error);
}

TEST(RngLawTest, GammaBelowUnitShape) {
  Rng rng(6);
  for (const real shape : {0.2, 0.5, 0.9}) {
    SCOPED_TRACE(shape);
    const auto xs = draws([&] { return rng.gamma(shape, 2.0); });
    expect_moments(xs, 2.0 * shape, 4.0 * shape);
    EXPECT_TRUE(
        ks_fits(xs, [&](real x) { return test::gamma_cdf(shape, 2.0, x); }));
  }
}

TEST(RngLawTest, ChiSquared) {
  Rng rng(7);
  for (const real k : {1.0, 2.0, 5.0}) {
    SCOPED_TRACE(k);
    const auto xs = draws([&] { return rng.chi_squared(k); });
    expect_moments(xs, k, 2.0 * k);
    EXPECT_TRUE(
        ks_fits(xs, [&](real x) { return test::gamma_cdf(0.5 * k, 2.0, x); }));
  }
  EXPECT_THROW(rng.chi_squared(0.0), precondition_error);
}

TEST(RngLawTest, Exponential) {
  Rng rng(8);
  const auto xs = draws([&] { return rng.exponential(0.5); });
  expect_moments(xs, 0.5, 0.25);
  EXPECT_TRUE(ks_fits(xs, [](real x) { return 1.0 - std::exp(-x / 0.5); }));
  EXPECT_THROW(rng.exponential(0.0), precondition_error);
}

TEST(RngLawTest, PoissonSmallAndServingMeans) {
  Rng rng(9);
  // Knuth below 10, PTRS from 10 on: serve's site arrival means run from
  // ≈23 (perfbench) to ≈500 (E9 at 1M sessions).
  for (const real mean : {0.3, 1.8, 4.0, 9.9, 10.0, 23.0, 526.0}) {
    SCOPED_TRACE(mean);
    const auto xs =
        draws([&] { return static_cast<real>(rng.poisson(mean)); });
    expect_moments(xs, mean, mean);
    EXPECT_TRUE(ks_fits_integer(xs, [&](real k) {
      real pmf = std::exp(-mean), cdf = 0.0;
      for (real i = 0.0; i <= k; i += 1.0) {
        cdf += pmf;
        pmf *= mean / (i + 1.0);
      }
      return std::min(cdf, 1.0);
    }));
  }
  EXPECT_THROW(rng.poisson(0.0), precondition_error);
}

TEST(RngLawTest, UniformInt) {
  Rng rng(10);
  for (const std::uint64_t hi : {std::uint64_t{1}, std::uint64_t{6},
                                 std::uint64_t{96}}) {
    SCOPED_TRACE(hi);
    const auto xs =
        draws([&] { return static_cast<real>(rng.uniform_int(3, 3 + hi)); });
    const real width = static_cast<real>(hi + 1);
    expect_moments(xs, 3.0 + 0.5 * static_cast<real>(hi),
                   (width * width - 1.0) / 12.0);
    EXPECT_TRUE(ks_fits_integer(xs, [&](real k) {
      return std::clamp((k - 2.0) / width, 0.0, 1.0);
    }));
  }
  // A range that is not a power of two and close to 2⁶⁴ still lands in it.
  const std::uint64_t lo = 5, hi = (std::uint64_t{3} << 62) + 7;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = rng.uniform_int(lo, hi);
    ASSERT_GE(x, lo);
    ASSERT_LE(x, hi);
  }
  EXPECT_EQ(rng.uniform_int(9, 9), 9u);
}

TEST(RngTest, LognormalMedian) {
  Rng rng(8);
  const int n = 20001;
  std::vector<real> xs(n);
  for (auto& x : xs) x = rng.lognormal(0.0, 1.0);
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], 1.0, 0.1);  // median of exp(N(0,1)) is e⁰ = 1
}

TEST(RngTest, AngleRange) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const real a = rng.angle();
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, 2.0 * M_PI);
  }
}

TEST(RngTest, GaussianVectorPower) {
  Rng rng(10);
  const auto v = rng.complex_gaussian_vector(5000, 2.0);
  EXPECT_NEAR(v.squared_norm() / 5000.0, 2.0, 0.15);
}

TEST(RngTest, GaussianMatrixShape) {
  Rng rng(11);
  const auto m = rng.complex_gaussian_matrix(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
}

TEST(RngTest, RandomUnitVectorHasUnitNorm) {
  Rng rng(12);
  for (int i = 0; i < 20; ++i)
    EXPECT_NEAR(rng.random_unit_vector(8).norm(), 1.0, 1e-12);
}

TEST(RngTest, SampleWithoutReplacementProperties) {
  Rng rng(13);
  const auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<index_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto i : s) EXPECT_LT(i, 100u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), precondition_error);
}

TEST(RngTest, SampleCoversFullRangeOverTrials) {
  Rng rng(14);
  std::set<index_t> seen;
  for (int t = 0; t < 200; ++t) {
    for (const auto i : rng.sample_without_replacement(10, 3)) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 10u);  // every index reachable
}

TEST(RngTest, ThreeKeyStreamIsDeterministic) {
  Rng a = Rng::stream(42, 3, 1, 7);
  Rng b = Rng::stream(42, 3, 1, 7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, ThreeKeyStreamSeparatesEveryKey) {
  // Changing any single key — or permuting them — must land on a
  // different stream: the multi-cell engine partitions its entire key
  // space through this property (serving vs cross vs beam draws).
  const Rng base = Rng::stream(42, 3, 1, 7);
  auto first = [](Rng r) { return r.uniform(); };
  EXPECT_NE(first(base), first(Rng::stream(43, 3, 1, 7)));
  EXPECT_NE(first(base), first(Rng::stream(42, 4, 1, 7)));
  EXPECT_NE(first(base), first(Rng::stream(42, 3, 2, 7)));
  EXPECT_NE(first(base), first(Rng::stream(42, 3, 1, 8)));
  EXPECT_NE(first(base), first(Rng::stream(42, 1, 3, 7)));
  EXPECT_NE(first(base), first(Rng::stream(42, 7, 1, 3)));
}

TEST(RngTest, ThreeKeyStreamsLookIndependent) {
  // Adjacent keys in each position produce streams with no pairwise
  // collisions over a short horizon (SplitMix64 finalization per key).
  std::set<double> seen;
  int draws = 0;
  for (std::uint64_t a = 0; a < 4; ++a)
    for (std::uint64_t b = 0; b < 4; ++b)
      for (std::uint64_t c = 0; c < 4; ++c) {
        Rng r = Rng::stream(2016, a, b, c);
        for (int i = 0; i < 8; ++i) {
          seen.insert(r.uniform());
          ++draws;
        }
      }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(draws));
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(15);
  const auto p = rng.permutation(50);
  EXPECT_EQ(p.size(), 50u);
  std::set<index_t> unique(p.begin(), p.end());
  EXPECT_EQ(unique.size(), 50u);
}

}  // namespace
}  // namespace mmw::randgen
