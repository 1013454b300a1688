// Test-only reference for the probe energy law.
//
// per_fade_energy is the measurement chain the library ran before it
// sampled the law directly: each fade draws the path gains, forms H·u and
// the matched filter vᴴ(H·u), and adds CN(0, σ²) noise. The law tests
// compare the library's samples against it, so it must stay a literal fade
// synthesis and never call mac::sample_energy.
#pragma once

#include <cmath>

#include "channel/link.h"
#include "linalg/vector.h"
#include "randgen/rng.h"
#include "support/stats.h"

namespace mmw::test {

/// The slot average (1/F)Σ|vᴴH_f u + n_f|² of `fades` synthesized fades,
/// n_f ~ CN(0, noise_var); a blocked slot sees noise only.
inline real per_fade_energy(const channel::Link& link, const linalg::Vector& u,
                            const linalg::Vector& v, real noise_var,
                            bool blocked, index_t fades, randgen::Rng& rng) {
  real energy = 0.0;
  for (index_t k = 0; k < fades; ++k) {
    cx z = rng.complex_normal(noise_var);
    if (!blocked) z += linalg::dot(v, link.draw_effective_channel(u, rng));
    energy += std::norm(z);
  }
  return energy / static_cast<real>(fades);
}

/// Exact moments of the probe energy under Bernoulli(p) blockage: with
/// probability p it is Gamma(F, λ_blocked/F), else Gamma(F, λ_clear/F).
/// The standard errors are those of the mean and (population) variance of
/// n iid draws.
struct LawMoments {
  real mean = 0.0;
  real variance = 0.0;
  real mean_se = 0.0;
  real variance_se = 0.0;
};

inline LawMoments energy_law_moments(real lambda_clear, real lambda_blocked,
                                     real p, index_t fades, index_t n) {
  const real f = static_cast<real>(fades);
  // Raw moment r of Gamma(F, λ/F): (λ/F)^r · F(F+1)…(F+r−1).
  auto raw = [&](int r) {
    real clear = 1.0, blocked = 1.0;
    for (int i = 0; i < r; ++i) {
      clear *= lambda_clear / f * (f + i);
      blocked *= lambda_blocked / f * (f + i);
    }
    return (1.0 - p) * clear + p * blocked;
  };
  const real m1 = raw(1), m2 = raw(2), m3 = raw(3), m4 = raw(4);
  LawMoments out;
  out.mean = m1;
  out.variance = m2 - m1 * m1;
  const real mu4 =
      m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1 * m1 - 3.0 * m1 * m1 * m1 * m1;
  const real count = static_cast<real>(n);
  out.mean_se = std::sqrt(out.variance / count);
  out.variance_se = std::sqrt((mu4 - out.variance * out.variance) / count);
  return out;
}

}  // namespace mmw::test
