// Bit-identity of the lazily seeded MersenneTwister64 and of every Rng
// variate against std::mt19937_64: uniform and normal against the std
// distributions, uniform_int, gamma, exponential and Poisson against their
// algorithms spelled out on the std engine's draws.
#include "randgen/mersenne.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <concepts>
#include <numeric>
#include <random>
#include <vector>

#include "randgen/rng.h"

namespace mmw::randgen {
namespace {

static_assert(std::uniform_random_bit_generator<MersenneTwister64>);
static_assert(MersenneTwister64::min() == std::mt19937_64::min());
static_assert(MersenneTwister64::max() == std::mt19937_64::max());

/// SplitMix64 sequence, independent of the library, for seed sampling.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Draws `count` words from both engines, failing on the first mismatch.
::testing::AssertionResult same_words(MersenneTwister64& lazy,
                                      std::mt19937_64& ref, int count) {
  for (int i = 0; i < count; ++i) {
    const std::uint64_t a = lazy();
    const std::uint64_t b = ref();
    if (a != b)
      return ::testing::AssertionFailure()
             << "word " << i << ": " << a << " != " << b;
  }
  return ::testing::AssertionSuccess();
}

// Counts on both sides of the first block's lazy-seeding boundary
// (n − m = 156), the block end (312) and later block ends.
const int kBoundaryCounts[] = {1,   155, 156, 157,  310,
                               311, 312, 313, 624, 1000};

TEST(EngineTest, MatchesStdOnFixedSeeds) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        ~std::uint64_t{0}}) {
    for (const int count : kBoundaryCounts) {
      MersenneTwister64 lazy(seed);
      std::mt19937_64 ref(seed);
      EXPECT_TRUE(same_words(lazy, ref, count))
          << "seed " << seed << ", count " << count;
    }
  }
}

TEST(EngineTest, MatchesStdOnSplitMixSeedsAndPrefixLengths) {
  std::uint64_t state = 2016;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t seed = splitmix(state);
    // Prefix lengths cycle through 1..700, so every first-block position
    // (and the start of the second and third blocks) is a stream's end.
    const int count = 1 + i % 700;
    MersenneTwister64 lazy(seed);
    std::mt19937_64 ref(seed);
    ASSERT_TRUE(same_words(lazy, ref, count)) << "seed " << seed;
  }
}

TEST(EngineTest, CopyMidBlockContinuesIdentically) {
  for (const int count : kBoundaryCounts) {
    MersenneTwister64 a(42);
    std::mt19937_64 ref(42);
    ASSERT_TRUE(same_words(a, ref, count));
    MersenneTwister64 b = a;
    MersenneTwister64 c(7);
    c = a;
    std::mt19937_64 ref_b = ref;
    std::mt19937_64 ref_c = ref;
    EXPECT_TRUE(same_words(a, ref, 700)) << "count " << count;
    EXPECT_TRUE(same_words(b, ref_b, 700)) << "count " << count;
    EXPECT_TRUE(same_words(c, ref_c, 700)) << "count " << count;
  }
}

TEST(EngineTest, FreshEngineCopiesIdentically) {
  MersenneTwister64 a(9);
  MersenneTwister64 b = a;
  std::mt19937_64 ref(9);
  std::mt19937_64 ref_b(9);
  EXPECT_TRUE(same_words(a, ref, 400));
  EXPECT_TRUE(same_words(b, ref_b, 400));
}

// -- every Rng method against a reference on std::mt19937_64 --------------

constexpr int kDraws = 2000;

TEST(RngIdentityTest, Uniform) {
  Rng rng(11);
  std::mt19937_64 ref(11);
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(rng.uniform(), std::uniform_real_distribution<real>()(ref));
    ASSERT_EQ(rng.uniform(-3.0, 5.5),
              std::uniform_real_distribution<real>(-3.0, 5.5)(ref));
    ASSERT_EQ(rng.angle(),
              std::uniform_real_distribution<real>(0.0, 2.0 * M_PI)(ref));
  }
}

/// Lemire's multiply-shift on std::mt19937_64 words, spelled out: the
/// high word of w·s, retried while the low word is below 2⁶⁴ mod s.
std::uint64_t reference_uniform_int(std::mt19937_64& ref, std::uint64_t lo,
                                    std::uint64_t hi) {
  __extension__ using u128 = unsigned __int128;
  if (hi - lo == ~std::uint64_t{0}) return ref();
  const std::uint64_t s = hi - lo + 1;
  const std::uint64_t threshold = (0 - s) % s;
  u128 m = static_cast<u128>(ref()) * s;
  while (static_cast<std::uint64_t>(m) < threshold)
    m = static_cast<u128>(ref()) * s;
  return lo + static_cast<std::uint64_t>(m >> 64);
}

TEST(RngIdentityTest, UniformInt) {
  Rng rng(12);
  std::mt19937_64 ref(12);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t hi = static_cast<std::uint64_t>(i % 97);
    ASSERT_EQ(rng.uniform_int(0, hi), reference_uniform_int(ref, 0, hi));
    ASSERT_EQ(rng.uniform_int(5, ~std::uint64_t{0}),
              reference_uniform_int(ref, 5, ~std::uint64_t{0}));
    ASSERT_EQ(rng.uniform_int(0, ~std::uint64_t{0}), ref());
  }
}

TEST(RngIdentityTest, Normal) {
  Rng rng(13);
  std::mt19937_64 ref(13);
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(rng.normal(), std::normal_distribution<real>()(ref));
    ASSERT_EQ(rng.normal(1.5, 0.3),
              std::normal_distribution<real>(1.5, 0.3)(ref));
    ASSERT_EQ(rng.normal(-2.0, 17.0),
              std::normal_distribution<real>(-2.0, 17.0)(ref));
  }
}

TEST(RngIdentityTest, NormalWithZeroSigmaIsTheMeanAndConsumesADraw) {
  Rng rng(14);
  std::mt19937_64 ref(14);
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(rng.normal(0.25, 0.0), 0.25);
    std::normal_distribution<real>()(ref);  // the draw σ = 0 still takes
    ASSERT_EQ(rng.normal(), std::normal_distribution<real>()(ref));
  }
  EXPECT_EQ(rng.complex_normal(0.0), cx(0.0, 0.0));
}

TEST(RngIdentityTest, ComplexNormal) {
  Rng rng(15);
  std::mt19937_64 ref(15);
  for (int i = 0; i < kDraws; ++i) {
    const real variance = 0.5 + i % 7;
    const cx z = rng.complex_normal(variance);
    const real s = std::sqrt(variance / 2.0);
    const real re = std::normal_distribution<real>(0.0, s)(ref);
    const real im = std::normal_distribution<real>(0.0, s)(ref);
    ASSERT_EQ(z.real(), re);
    ASSERT_EQ(z.imag(), im);
  }
}

/// One mixed fade-synthesis draw on both sides, selected by `kind`:
/// normal (σ > 0 and σ = 0), complex_normal, lognormal or uniform.
::testing::AssertionResult same_variate(Rng& rng, std::mt19937_64& ref,
                                        int kind, real param) {
  real got = 0.0, want = 0.0, got_im = 0.0, want_im = 0.0;
  switch (kind) {
    case 0:
      got = rng.normal(param - 1.0, param);
      want = std::normal_distribution<real>(param - 1.0, param)(ref);
      break;
    case 1:  // σ = 0: the mean, and the draw is still consumed
      got = rng.normal(param, 0.0);
      std::normal_distribution<real>()(ref);
      want = param;
      break;
    case 2: {
      const cx z = rng.complex_normal(param);
      const real s = std::sqrt(param / 2.0);
      got = z.real();
      got_im = z.imag();
      want = std::normal_distribution<real>(0.0, s)(ref);
      want_im = std::normal_distribution<real>(0.0, s)(ref);
      break;
    }
    case 3:
      got = rng.lognormal(param - 2.0, param);
      want = std::lognormal_distribution<real>(param - 2.0, param)(ref);
      break;
    default:
      got = rng.uniform(-param, 3.0 * param);
      want = std::uniform_real_distribution<real>(-param, 3.0 * param)(ref);
      break;
  }
  if (std::bit_cast<std::uint64_t>(got) != std::bit_cast<std::uint64_t>(want) ||
      std::bit_cast<std::uint64_t>(got_im) !=
          std::bit_cast<std::uint64_t>(want_im))
    return ::testing::AssertionFailure()
           << "kind " << kind << ": " << got << "," << got_im << " != "
           << want << "," << want_im;
  return ::testing::AssertionSuccess();
}

TEST(RngIdentityTest, FadeVariatesMatchStdOverSeedsAndPrefixes) {
  std::uint64_t state = 63016;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t seed = splitmix(state);
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    // Raw-word prefixes put the variates at every first-block position
    // and across the first two block boundaries.
    const int prefix = (i * 7) % 700;
    ASSERT_TRUE(same_words(rng.engine(), ref, prefix)) << "seed " << seed;
    for (int k = 0; k < 24; ++k) {
      const real param = 0.25 + static_cast<real>((i + 3 * k) % 9);
      ASSERT_TRUE(same_variate(rng, ref, (i + k) % 5, param))
          << "seed " << seed << ", prefix " << prefix << ", draw " << k;
    }
  }
}

TEST(RngIdentityTest, LongMixedStreamMatchesStd) {
  // One stream through several thousand blocks of whole-block twists.
  Rng rng(20160610);
  std::mt19937_64 ref(20160610);
  std::uint64_t state = 1;
  for (int k = 0; k < 400000; ++k) {
    const std::uint64_t r = splitmix(state);
    ASSERT_TRUE(same_variate(rng, ref, static_cast<int>(r % 5),
                             0.125 + static_cast<real>(r % 13)))
        << "draw " << k;
  }
}

/// A generator that returns one fixed word: std::generate_canonical on it
/// is the reference for canonical_of.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() { return word; }
};

::testing::AssertionResult canonical_matches_std(std::uint64_t w) {
  FixedWord g{w};
  const real want = std::generate_canonical<real, 53>(g);
  const real want64 = std::generate_canonical<real, 64>(g);
  const real got = canonical_of(w);
  if (std::bit_cast<std::uint64_t>(got) != std::bit_cast<std::uint64_t>(want) ||
      std::bit_cast<std::uint64_t>(got) != std::bit_cast<std::uint64_t>(want64))
    return ::testing::AssertionFailure()
           << std::hex << "word 0x" << w << std::hexfloat << ": " << got
           << " != " << want;
  return ::testing::AssertionSuccess();
}

TEST(CanonicalTest, MatchesGenerateCanonicalOnHighWords) {
  // Words ≥ 2⁶³: the ones the compiler's unsigned conversion branches on.
  std::uint64_t state = 7;
  for (int i = 0; i < 100000; ++i)
    ASSERT_TRUE(canonical_matches_std(splitmix(state) | (1ULL << 63)));
  for (const std::uint64_t w :
       {0ULL, 1ULL, (1ULL << 32) - 1, 1ULL << 32, (1ULL << 32) + 1,
        (1ULL << 53) + 1, (1ULL << 53) + 3, (1ULL << 63) - 1, 1ULL << 63,
        (1ULL << 63) + 1, (1ULL << 63) + (1ULL << 10),
        (1ULL << 63) + (3ULL << 10)})
    EXPECT_TRUE(canonical_matches_std(w));
}

TEST(CanonicalTest, WordsRoundingToTwoToThe64AreClamped) {
  // The top 2¹² words straddle the rounding boundary 2⁶⁴ − 2¹⁰ (a tie,
  // which rounds to even, up). Those at or above it round to 2⁶⁴ and are
  // clamped to the largest double below 1.
  const real below_one = std::nextafter(1.0, 0.0);
  for (std::uint64_t d = 1; d <= (1ULL << 12); ++d) {
    const std::uint64_t w = ~std::uint64_t{0} - (d - 1);
    ASSERT_TRUE(canonical_matches_std(w));
    const real x = canonical_of(w);
    ASSERT_LT(x, 1.0);
    if (d <= (1ULL << 10)) {
      ASSERT_EQ(x, below_one) << "d " << d;
    }
  }
}

// -- the in-repo samplers, spelled out on std::mt19937_64 draws ----------

/// One canonical double, as Rng::uniform() draws it.
real std_canonical(std::mt19937_64& ref) {
  return std::uniform_real_distribution<real>()(ref);
}

/// Marsaglia–Tsang gamma on libstdc++'s normal and canonical draws.
real reference_gamma(std::mt19937_64& ref, real shape, real scale) {
  if (shape < 1.0)
    return reference_gamma(ref, shape + 1.0, scale) *
           std::pow(std_canonical(ref), 1.0 / shape);
  const real d = shape - 1.0 / 3.0;
  const real c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    real x = 0.0, v = 0.0;
    do {
      x = std::normal_distribution<real>()(ref);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const real u = std_canonical(ref);
    const real x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2 ||
        std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v)))
      return d * v * scale;
  }
}

/// Knuth's product of uniforms below mean 10, Hörmann's PTRS above.
std::uint64_t reference_poisson(std::mt19937_64& ref, real mean) {
  if (mean < 10.0) {
    std::uint64_t k = 0;
    for (real p = std_canonical(ref); p > std::exp(-mean);
         p *= std_canonical(ref))
      ++k;
    return k;
  }
  const real b = 0.931 + 2.53 * std::sqrt(mean);
  const real a = -0.059 + 0.02483 * b;
  const real log_inv_alpha = std::log(1.1239 + 1.1328 / (b - 3.4));
  const real vr = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const real u = std_canonical(ref) - 0.5;
    const real v = std_canonical(ref);
    const real us = 0.5 - std::abs(u);
    const real k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= vr) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    int sign = 0;
    if (std::log(v) + log_inv_alpha - std::log(a / (us * us) + b) <=
        -mean + k * std::log(mean) - lgamma_r(k + 1.0, &sign))
      return static_cast<std::uint64_t>(k);
  }
}

TEST(RngIdentityTest, Gamma) {
  Rng rng(15);
  std::mt19937_64 ref(15);
  for (int i = 0; i < kDraws; ++i) {
    const real shape = 0.25 + 0.5 * (i % 17);
    ASSERT_EQ(rng.gamma(shape, 1.5), reference_gamma(ref, shape, 1.5))
        << "shape " << shape;
  }
}

TEST(RngIdentityTest, ChiSquared) {
  Rng rng(16);
  std::mt19937_64 ref(16);
  for (int i = 0; i < kDraws; ++i) {
    const real k = 0.5 + i % 9;
    ASSERT_EQ(rng.chi_squared(k), reference_gamma(ref, 0.5 * k, 2.0));
  }
}

TEST(RngIdentityTest, Exponential) {
  Rng rng(17);
  std::mt19937_64 ref(17);
  for (int i = 0; i < kDraws; ++i) {
    const real mean = 0.1 + i % 50;
    ASSERT_EQ(rng.exponential(mean), -mean * std::log1p(-std_canonical(ref)));
  }
}

TEST(RngIdentityTest, Poisson) {
  Rng rng(18);
  std::mt19937_64 ref(18);
  // Means on both sides of the switch to PTRS (10), up to E9's 1M-session
  // arrival mean.
  for (const real mean : {0.3, 4.0, 9.99, 10.0, 23.0, 150.0, 4700.0}) {
    for (int i = 0; i < kDraws / 4; ++i)
      ASSERT_EQ(rng.poisson(mean), reference_poisson(ref, mean))
          << "mean " << mean;
  }
}

TEST(RngIdentityTest, Lognormal) {
  Rng rng(19);
  std::mt19937_64 ref(19);
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(rng.lognormal(0.0, 1.0),
              std::lognormal_distribution<real>(0.0, 1.0)(ref));
    ASSERT_EQ(rng.lognormal(-1.25, 0.4),
              std::lognormal_distribution<real>(-1.25, 0.4)(ref));
  }
}

TEST(RngIdentityTest, LognormalWithZeroSigmaIsExpOfMu) {
  Rng rng(20);
  std::mt19937_64 ref(20);
  EXPECT_EQ(rng.lognormal(0.7, 0.0), std::exp(0.7));
  std::normal_distribution<real>()(ref);
  EXPECT_EQ(rng.normal(), std::normal_distribution<real>()(ref));
}

TEST(RngIdentityTest, SampleWithoutReplacement) {
  Rng rng(21);
  std::mt19937_64 ref(21);
  for (index_t n = 1; n < 40; ++n) {
    const index_t k = n / 2 + 1;
    std::vector<index_t> pool(n);
    std::iota(pool.begin(), pool.end(), index_t{0});
    for (index_t i = 0; i < k; ++i) {
      const index_t j =
          static_cast<index_t>(reference_uniform_int(ref, i, n - 1));
      std::swap(pool[i], pool[j]);
    }
    pool.resize(k);
    ASSERT_EQ(rng.sample_without_replacement(n, k), pool) << "n " << n;
  }
}

TEST(RngIdentityTest, ForkSeedsTheChildFromOneWord) {
  Rng rng(22);
  std::mt19937_64 ref(22);
  Rng child = rng.fork();
  std::mt19937_64 ref_child(ref());
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(child.normal(), std::normal_distribution<real>()(ref_child));
    ASSERT_EQ(rng.uniform(), std::uniform_real_distribution<real>()(ref));
  }
}

TEST(RngIdentityTest, CopiedRngContinuesIdentically) {
  Rng a = Rng::stream(2016, 3, 4, 5);
  for (int i = 0; i < 101; ++i) a.normal();  // mid-block, odd word count
  Rng b = a;
  for (int i = 0; i < kDraws; ++i) {
    const real x = a.normal();
    ASSERT_EQ(x, b.normal());
    ASSERT_EQ(a.uniform(), b.uniform());
  }
}

}  // namespace
}  // namespace mmw::randgen
