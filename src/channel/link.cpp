#include "channel/link.h"

#include <algorithm>
#include <cmath>

#include "antenna/steering.h"
#include "linalg/functions.h"

namespace mmw::channel {

using linalg::Matrix;
using linalg::Vector;

Link::Link(const antenna::ArrayGeometry& tx, const antenna::ArrayGeometry& rx,
           std::vector<Path> paths)
    : m_(tx.size()), n_(rx.size()), paths_(std::move(paths)) {
  MMW_REQUIRE_MSG(!paths_.empty(), "a link needs at least one path");
  tx_steering_.reserve(paths_.size());
  rx_steering_.reserve(paths_.size());
  for (const Path& p : paths_) {
    MMW_REQUIRE_MSG(p.power >= 0.0, "path power must be non-negative");
    tx_steering_.push_back(antenna::steering_vector(tx, p.aod));
    rx_steering_.push_back(antenna::steering_vector(rx, p.aoa));
  }
  amplitude_scale_ = std::sqrt(static_cast<real>(n_ * m_));
}

real Link::total_power() const {
  real acc = 0.0;
  for (const Path& p : paths_) acc += p.power;
  return acc;
}

Link Link::with_scaled_path_powers(std::span<const real> scale) const {
  MMW_REQUIRE_MSG(scale.size() == paths_.size(),
                  "need one power scale per path");
  Link scaled = *this;
  for (index_t l = 0; l < paths_.size(); ++l) {
    MMW_REQUIRE_MSG(scale[l] >= 0.0, "power scale must be non-negative");
    scaled.paths_[l].power *= scale[l];
  }
  return scaled;
}

Matrix Link::rx_covariance() const {
  Matrix q(n_, n_);
  const real nm = static_cast<real>(n_ * m_);
  for (index_t l = 0; l < paths_.size(); ++l)
    q += cx{nm * paths_[l].power, 0.0} *
         Matrix::outer(rx_steering_[l], rx_steering_[l]);
  return q;
}

Matrix Link::rx_covariance_for_beam(const Vector& u) const {
  MMW_REQUIRE(u.size() == m_);
  Matrix q(n_, n_);
  const real nm = static_cast<real>(n_ * m_);
  for (index_t l = 0; l < paths_.size(); ++l) {
    const real coupling = std::norm(linalg::dot(tx_steering_[l], u));
    q += cx{nm * paths_[l].power * coupling, 0.0} *
         Matrix::outer(rx_steering_[l], rx_steering_[l]);
  }
  return q;
}

real Link::mean_pair_gain(const Vector& u, const Vector& v) const {
  MMW_REQUIRE(u.size() == m_ && v.size() == n_);
  const real nm = static_cast<real>(n_ * m_);
  real acc = 0.0;
  for (index_t l = 0; l < paths_.size(); ++l) {
    acc += paths_[l].power * std::norm(linalg::dot(rx_steering_[l], v)) *
           std::norm(linalg::dot(tx_steering_[l], u));
  }
  return nm * acc;
}

real Link::best_mean_pair_gain(const antenna::Codebook& tx_codebook,
                               const antenna::Codebook& rx_codebook) const {
  const index_t paths = paths_.size();
  const index_t tx_beams = tx_codebook.size();
  const index_t rx_beams = rx_codebook.size();
  // Row t / r holds one beam's per-path factor; the RX row already carries
  // p_l, as mean_pair_gain's left-to-right (p_l·rx)·tx product does.
  std::vector<real> tx_coupling(tx_beams * paths);
  std::vector<real> rx_coupling(rx_beams * paths);
  for (index_t t = 0; t < tx_beams; ++t) {
    const Vector& u = tx_codebook.codeword(t);
    MMW_REQUIRE(u.size() == m_);
    for (index_t l = 0; l < paths; ++l)
      tx_coupling[t * paths + l] = std::norm(linalg::dot(tx_steering_[l], u));
  }
  for (index_t r = 0; r < rx_beams; ++r) {
    const Vector& v = rx_codebook.codeword(r);
    MMW_REQUIRE(v.size() == n_);
    for (index_t l = 0; l < paths; ++l)
      rx_coupling[r * paths + l] =
          paths_[l].power * std::norm(linalg::dot(rx_steering_[l], v));
  }
  const real nm = static_cast<real>(n_ * m_);
  real best = 0.0;
  for (index_t t = 0; t < tx_beams; ++t) {
    const real* tx = &tx_coupling[t * paths];
    for (index_t r = 0; r < rx_beams; ++r) {
      const real* rx = &rx_coupling[r * paths];
      real acc = 0.0;
      for (index_t l = 0; l < paths; ++l) acc += rx[l] * tx[l];
      best = std::max(best, nm * acc);
    }
  }
  return best;
}

Matrix Link::draw_channel(randgen::Rng& rng) const {
  Matrix h(n_, m_);
  for (index_t l = 0; l < paths_.size(); ++l) {
    const cx g = rng.complex_normal(paths_[l].power) *
                 cx{amplitude_scale_, 0.0};
    // h += g · a_rx a_txᴴ
    const Vector& ar = rx_steering_[l];
    const Vector& at = tx_steering_[l];
    for (index_t i = 0; i < n_; ++i) {
      const cx gi = g * ar[i];
      for (index_t j = 0; j < m_; ++j) h(i, j) += gi * std::conj(at[j]);
    }
  }
  return h;
}

Vector Link::draw_effective_channel(const Vector& u, randgen::Rng& rng) const {
  Vector h(n_);
  draw_effective_channel_into(u, rng, h);
  return h;
}

void Link::draw_effective_channel_into(const Vector& u, randgen::Rng& rng,
                                       Vector& h) const {
  MMW_REQUIRE(u.size() == m_);
  MMW_REQUIRE(h.size() == n_);
  std::fill(h.begin(), h.end(), cx{0.0, 0.0});
  for (index_t l = 0; l < paths_.size(); ++l) {
    const cx g = rng.complex_normal(paths_[l].power) *
                 cx{amplitude_scale_, 0.0} * linalg::dot(tx_steering_[l], u);
    for (index_t i = 0; i < n_; ++i) h[i] += g * rx_steering_[l][i];
  }
}

void Link::tx_gains_into(const Vector& u, std::span<cx> gains) const {
  MMW_REQUIRE(u.size() == m_);
  MMW_REQUIRE(gains.size() == paths_.size());
  for (index_t l = 0; l < paths_.size(); ++l)
    gains[l] = linalg::dot(tx_steering_[l], u);
}

namespace {

/// std::complex's product (ac − bd, ad + bc), spelled out so it compiles
/// without the NaN-recovery branch; equal to it for every non-NaN result.
cx mul(cx a, cx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// acc += conj(v_i)·h_i for the W elements i = i0 … i0+W−1 in turn, each
/// h_i = 0 + g_0·a_0[i] + g_1·a_1[i] + … in path order. The W sums are
/// independent dependency chains, so their adds overlap in the pipeline.
template <index_t W>
void accumulate_matched(std::span<const cx> gains,
                        const std::vector<Vector>& steering, const Vector& v,
                        index_t i0, cx& acc) {
  cx h[W] = {};
  for (index_t l = 0; l < gains.size(); ++l) {
    const cx g = gains[l];
    const cx* a = &steering[l][i0];
    for (index_t k = 0; k < W; ++k) h[k] += mul(g, a[k]);
  }
  for (index_t k = 0; k < W; ++k) acc += mul(std::conj(v[i0 + k]), h[k]);
}

}  // namespace

cx Link::draw_matched_filter(std::span<const cx> tx_gains, const Vector& v,
                             randgen::Rng& rng,
                             std::span<cx> fade_gains) const {
  const index_t paths = paths_.size();
  MMW_REQUIRE(tx_gains.size() == paths && fade_gains.size() == paths);
  MMW_REQUIRE(v.size() == n_);
  for (index_t l = 0; l < paths; ++l)
    fade_gains[l] = mul(mul(rng.complex_normal(paths_[l].power),
                            cx{amplitude_scale_, 0.0}),
                        tx_gains[l]);
  // i outer, l inner: each h_i keeps draw_effective_channel_into's
  // accumulation order over paths, and the sum over i keeps linalg::dot's.
  cx acc{0.0, 0.0};
  index_t i = 0;
  for (; i + 4 <= n_; i += 4)
    accumulate_matched<4>(fade_gains, rx_steering_, v, i, acc);
  for (; i < n_; ++i) accumulate_matched<1>(fade_gains, rx_steering_, v, i, acc);
  return acc;
}

Vector sample_complex_gaussian(const Matrix& q, randgen::Rng& rng) {
  MMW_REQUIRE(q.is_square());
  const Matrix root = linalg::hermitian_sqrt(q);
  return root * rng.complex_gaussian_vector(q.rows());
}

}  // namespace mmw::channel
