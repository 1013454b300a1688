// Seeded random number generation for reproducible Monte-Carlo simulation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "randgen/mersenne.h"

namespace mmw::randgen {

/// The double in [0, 1) that libstdc++'s generate_canonical<double, 53>
/// makes of one 64-bit engine word, bit for bit: double(w)·2⁻⁶⁴, clamped to
/// nextafter(1, 0) when w rounds up to 2⁶⁴ (DESIGN.md §7).
inline real canonical_of(std::uint64_t w) {
  // double(w) rounds once to nearest; so does the sum of the exact halves
  // hi·2³² and lo, without the branch the compiler emits for w ≥ 2⁶³.
  // Scaling by 2⁻⁶⁴ is exact, and min() is the clamp: every x < 1 is
  // already ≤ nextafter(1, 0).
  const real x = (static_cast<real>(static_cast<std::uint32_t>(w >> 32)) *
                      0x1p32 +
                  static_cast<real>(static_cast<std::uint32_t>(w))) *
                 0x1p-64;
  return std::min(x, 0x1.fffffffffffffp-1);
}

/// Deterministic random source. Every stochastic component in the library
/// takes an Rng& explicitly — there is no hidden global state — so any
/// simulation is reproducible from its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derives an independent child stream by drawing from this engine; the
  /// child is reproducible but the *parent* advances, so fork() chains are
  /// inherently sequential. For parallel work use stream() instead.
  Rng fork();

  /// Derives stream `stream_index` of `master_seed` without any shared
  /// state: the seed is a SplitMix64 finalization of
  /// master_seed + (stream_index+1)·golden-gamma, so any (seed, index)
  /// pair maps to the same engine no matter which thread asks, in what
  /// order, or how many streams exist. This is what gives the Monte-Carlo
  /// drivers bit-exact results independent of thread count (DESIGN.md §7).
  static Rng stream(std::uint64_t master_seed, std::uint64_t stream_index);

  /// Three-key variant for the multi-cell engine: an independent stream per
  /// (key_a, key_b, key_c) — typically (cell, user, trial) — derived by
  /// chaining one SplitMix64 finalization per key. Like the single-key
  /// overload it needs no shared state, so any shard can rebuild any other
  /// shard's stream; the chaining makes the map injective in practice
  /// (each step is a bijection of the running state, keys enter one at a
  /// time), and distinct from every single-key stream of the same seed.
  static Rng stream(std::uint64_t master_seed, std::uint64_t key_a,
                    std::uint64_t key_b, std::uint64_t key_c);

  /// Uniform real in [lo, hi).
  real uniform(real lo = 0.0, real hi = 1.0) {
    MMW_REQUIRE(lo <= hi);
    return canonical() * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] (inclusive): Lemire's multiply-shift with
  /// rejection of the biased low band, one engine word per try.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// N(mean, stddev²) real Gaussian. σ = 0 returns the mean and still
  /// consumes the draw.
  real normal(real mean = 0.0, real stddev = 1.0) {
    MMW_REQUIRE(stddev >= 0.0);
    return standard_normal() * stddev + mean;
  }

  /// Circularly-symmetric complex Gaussian CN(0, variance):
  /// real and imaginary parts are each N(0, variance/2), so E|x|² = variance.
  cx complex_normal(real variance = 1.0) {
    MMW_REQUIRE(variance >= 0.0);
    const real s = std::sqrt(variance / 2.0);
    return cx{normal(0.0, s), normal(0.0, s)};
  }

  /// Gamma(shape, scale), mean shape·scale: Marsaglia–Tsang squeeze
  /// rejection on normal() and uniform(); shape < 1 boosts a
  /// Gamma(shape + 1) draw by U^(1/shape).
  real gamma(real shape, real scale = 1.0);

  /// Chi-squared with k degrees of freedom: 2·Gamma(k/2).
  real chi_squared(real k) { return gamma(0.5 * k, 2.0); }

  /// Exponential with the given mean, by inversion of one uniform.
  real exponential(real mean);

  /// Poisson with the given mean: Knuth's product of uniforms below 10,
  /// Hörmann's PTRS transformed rejection from 10 on; both exact.
  std::uint64_t poisson(real mean);

  /// Lognormal: exp(N(mu, sigma²)).
  real lognormal(real mu, real sigma) {
    MMW_REQUIRE(sigma >= 0.0);
    return std::exp(sigma * standard_normal() + mu);
  }

  /// Uniform angle in [0, 2π).
  real angle() { return uniform(0.0, 2.0 * M_PI); }

  /// Vector of iid CN(0, variance) entries.
  linalg::Vector complex_gaussian_vector(index_t n, real variance = 1.0);

  /// Matrix of iid CN(0, variance) entries.
  linalg::Matrix complex_gaussian_matrix(index_t rows, index_t cols,
                                         real variance = 1.0);

  /// Random unit-norm complex vector (Haar-uniform on the sphere).
  linalg::Vector random_unit_vector(index_t n);

  /// Uniformly random k-subset of {0, …, n−1}, in random order.
  /// Precondition: k ≤ n.
  std::vector<index_t> sample_without_replacement(index_t n, index_t k);

  /// Random permutation of {0, …, n−1}.
  std::vector<index_t> permutation(index_t n);

  MersenneTwister64& engine() { return engine_; }

 private:
  /// One engine word as a double in [0, 1): canonical_of(next word).
  real canonical() { return canonical_of(engine_()); }

  /// N(0, 1): the first output a fresh libstdc++ normal distribution gives
  /// on this engine — its Marsaglia polar method with its exact
  /// arithmetic. The trailing + 0 is the default mean: it turns the −0 of
  /// an r2 = 1 draw into +0, as the distribution does.
  real standard_normal() {
    real x = 0.0, y = 0.0, r2 = 0.0;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return y * std::sqrt(-2.0 * std::log(r2) / r2) + 0.0;
  }

  MersenneTwister64 engine_;
};

}  // namespace mmw::randgen
