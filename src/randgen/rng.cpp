#include "randgen/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mmw::randgen {

Rng Rng::fork() {
  // A fresh 64-bit draw seeds an independent child engine; MT19937-64
  // streams seeded from distinct values are statistically independent for
  // simulation purposes.
  return Rng(engine_());
}

namespace {

/// SplitMix64 step (Steele, Lea & Flood 2014): advance the state by the
/// golden gamma scaled by (key+1), then run the mixing finalizer. The
/// finalizer is a bijection with strong avalanche, so nearby (state, key)
/// pairs yield unrelated outputs. Key is offset by 1 so key 0 is not a
/// plain finalization of the state itself.
std::uint64_t splitmix_step(std::uint64_t state, std::uint64_t key) {
  std::uint64_t z = state + (key + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

}  // namespace

Rng Rng::stream(std::uint64_t master_seed, std::uint64_t stream_index) {
  return Rng(splitmix_step(master_seed, stream_index));
}

Rng Rng::stream(std::uint64_t master_seed, std::uint64_t key_a,
                std::uint64_t key_b, std::uint64_t key_c) {
  // One chained step per key: each key perturbs the running state through
  // the full avalanche before the next enters, so (a, b, c) and any
  // permutation or prefix of it land on unrelated engines. The extra mixing
  // rounds also keep three-key streams disjoint from single-key ones.
  return Rng(splitmix_step(
      splitmix_step(splitmix_step(master_seed, key_a), key_b), key_c));
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  MMW_REQUIRE(lo <= hi);
  __extension__ using u128 = unsigned __int128;
  const std::uint64_t range = hi - lo;
  if (range == ~std::uint64_t{0}) return engine_();
  // Lemire (2019): the high word of w·s is uniform on [0, s) once the low
  // word avoids the 2⁶⁴ mod s values that would over-represent some.
  const std::uint64_t s = range + 1;
  u128 m = static_cast<u128>(engine_()) * s;
  if (static_cast<std::uint64_t>(m) < s) {
    const std::uint64_t threshold = (0 - s) % s;
    while (static_cast<std::uint64_t>(m) < threshold)
      m = static_cast<u128>(engine_()) * s;
  }
  return lo + static_cast<std::uint64_t>(m >> 64);
}

real Rng::gamma(real shape, real scale) {
  MMW_REQUIRE(shape > 0.0 && scale > 0.0);
  if (shape < 1.0)
    return gamma(shape + 1.0, scale) * std::pow(canonical(), 1.0 / shape);
  // Marsaglia & Tsang (2000): d·(1 + c·x)³ for x ~ N(0, 1), accepted by a
  // cheap squeeze or, rarely, by the exact log test.
  const real d = shape - 1.0 / 3.0;
  const real c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    real x = 0.0, v = 0.0;
    do {
      x = standard_normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const real u = canonical();
    const real x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2 ||
        std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v)))
      return d * v * scale;
  }
}

real Rng::exponential(real mean) {
  MMW_REQUIRE(mean > 0.0);
  return -mean * std::log1p(-canonical());
}

std::uint64_t Rng::poisson(real mean) {
  MMW_REQUIRE(mean > 0.0);
  if (mean < 10.0) {
    // Knuth: the count of uniforms whose running product stays above e^−μ.
    const real limit = std::exp(-mean);
    std::uint64_t k = 0;
    for (real prod = canonical(); prod > limit; prod *= canonical()) ++k;
    return k;
  }
  // PTRS (Hörmann 1993): a transformed-rejection hat over the pmf; the
  // squeeze accepts most draws without evaluating log k!.
  const real root = std::sqrt(mean);
  const real log_mean = std::log(mean);
  const real b = 0.931 + 2.53 * root;
  const real a = -0.059 + 0.02483 * b;
  const real log_inv_alpha = std::log(1.1239 + 1.1328 / (b - 3.4));
  const real vr = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const real u = canonical() - 0.5;
    const real v = canonical();
    const real us = 0.5 - std::abs(u);
    const real k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= vr) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    int sign = 0;  // lgamma_r: the thread-safe lgamma (no global signgam)
    if (std::log(v) + log_inv_alpha - std::log(a / (us * us) + b) <=
        -mean + k * log_mean - lgamma_r(k + 1.0, &sign))
      return static_cast<std::uint64_t>(k);
  }
}

linalg::Vector Rng::complex_gaussian_vector(index_t n, real variance) {
  linalg::Vector v(n);
  for (index_t i = 0; i < n; ++i) v[i] = complex_normal(variance);
  return v;
}

linalg::Matrix Rng::complex_gaussian_matrix(index_t rows, index_t cols,
                                            real variance) {
  linalg::Matrix m(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j) m(i, j) = complex_normal(variance);
  return m;
}

linalg::Vector Rng::random_unit_vector(index_t n) {
  MMW_REQUIRE(n > 0);
  linalg::Vector v = complex_gaussian_vector(n);
  while (v.norm() == 0.0) v = complex_gaussian_vector(n);
  return v.normalized();
}

std::vector<index_t> Rng::sample_without_replacement(index_t n, index_t k) {
  MMW_REQUIRE(k <= n);
  // Partial Fisher-Yates: only the first k positions are needed.
  std::vector<index_t> pool(n);
  std::iota(pool.begin(), pool.end(), index_t{0});
  for (index_t i = 0; i < k; ++i) {
    const index_t j = static_cast<index_t>(uniform_int(i, n - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

std::vector<index_t> Rng::permutation(index_t n) {
  return sample_without_replacement(n, n);
}

}  // namespace mmw::randgen
