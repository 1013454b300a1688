// Goodness-of-fit statistics for the fixed-seed sampler and law tests:
// moments, the gamma CDF and one- and two-sample Kolmogorov–Smirnov.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/common.h"

namespace mmw::test {

/// Regularized lower incomplete gamma P(shape, x), by its power series.
inline real gamma_p(real shape, real x) {
  if (x <= 0.0) return 0.0;
  real term = 1.0 / shape;
  real sum = term;
  for (int n = 1; n < 2000 && term > sum * 1e-17; ++n) {
    term *= x / (shape + n);
    sum += term;
  }
  return std::min(1.0, sum * std::exp(-x + shape * std::log(x) -
                                      std::lgamma(shape)));
}

/// CDF of Gamma(shape, scale) at x.
inline real gamma_cdf(real shape, real scale, real x) {
  return gamma_p(shape, x / scale);
}

/// Mean and (population) variance of a sample.
struct Moments {
  real mean = 0.0;
  real variance = 0.0;
};

inline Moments moments(const std::vector<real>& xs) {
  real sum = 0.0;
  for (const real x : xs) sum += x;
  const real mean = sum / static_cast<real>(xs.size());
  real ss = 0.0;
  for (const real x : xs) ss += (x - mean) * (x - mean);
  return {mean, ss / static_cast<real>(xs.size())};
}

/// Kolmogorov's asymptotic critical value c(α) = √(−ln(α/2)/2): reject
/// when √n·D > c(α) (one sample) or √(nm/(n+m))·D > c(α) (two samples).
inline real ks_critical(real alpha) {
  return std::sqrt(-std::log(alpha / 2.0) / 2.0);
}

/// One-sample KS statistic sup|F_n − F| of a continuous law's CDF.
template <class Cdf>
real ks_statistic(std::vector<real> xs, Cdf cdf) {
  std::sort(xs.begin(), xs.end());
  const real n = static_cast<real>(xs.size());
  real d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const real f = cdf(xs[i]);
    d = std::max({d, static_cast<real>(i + 1) / n - f,
                  f - static_cast<real>(i) / n});
  }
  return d;
}

/// Two-sample KS statistic sup|F_a − F_b|.
inline real ks_two_sample(std::vector<real> a, std::vector<real> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const real na = static_cast<real>(a.size());
  const real nb = static_cast<real>(b.size());
  std::size_t i = 0, j = 0;
  real d = 0.0;
  while (i < a.size() && j < b.size()) {
    const real x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::abs(static_cast<real>(i) / na -
                             static_cast<real>(j) / nb));
  }
  return d;
}

/// True when the two samples are KS-consistent at level α.
inline bool ks_same_law(const std::vector<real>& a, const std::vector<real>& b,
                        real alpha) {
  const real na = static_cast<real>(a.size());
  const real nb = static_cast<real>(b.size());
  return std::sqrt(na * nb / (na + nb)) * ks_two_sample(a, b) <=
         ks_critical(alpha);
}

}  // namespace mmw::test
