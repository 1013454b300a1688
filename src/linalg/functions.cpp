#include "linalg/functions.h"

#include <algorithm>
#include <cmath>

namespace mmw::linalg {

namespace {

/// Rebuilds V f(diag) Vᴴ from an eigendecomposition with mapped eigenvalues.
/// Eigenvector columns are read in place from the row-major storage.
Matrix rebuild(const EigResult& eig, const std::vector<real>& mapped) {
  const index_t n = eig.eigenvectors.rows();
  const cx* vecs = eig.eigenvectors.data().data();
  Matrix out(n, n);
  cx* o = out.data().data();
  for (index_t k = 0; k < n; ++k) {
    if (mapped[k] == 0.0) continue;
    for (index_t i = 0; i < n; ++i) {
      const cx scaled = mapped[k] * vecs[i * n + k];
      cx* out_row = o + i * n;
      for (index_t j = 0; j < n; ++j)
        out_row[j] += scaled * std::conj(vecs[j * n + k]);
    }
  }
  return out;
}

}  // namespace

Matrix psd_project(const Matrix& a) {
  const EigResult eig = hermitian_eig(a);
  std::vector<real> clipped(eig.eigenvalues.size());
  for (index_t k = 0; k < clipped.size(); ++k)
    clipped[k] = std::max(eig.eigenvalues[k], 0.0);
  return rebuild(eig, clipped);
}

Matrix hermitian_sqrt(const Matrix& a) {
  const EigResult eig = hermitian_eig(a);
  const real floor =
      -1e-9 * std::max(eig.eigenvalues.empty() ? 0.0 : eig.eigenvalues[0], 1.0);
  std::vector<real> roots(eig.eigenvalues.size());
  for (index_t k = 0; k < roots.size(); ++k) {
    MMW_REQUIRE_MSG(eig.eigenvalues[k] >= floor,
                    "hermitian_sqrt: matrix is not PSD");
    roots[k] = std::sqrt(std::max(eig.eigenvalues[k], 0.0));
  }
  return rebuild(eig, roots);
}

Matrix eigenvalue_soft_threshold(const Matrix& a, real mu) {
  MMW_REQUIRE_MSG(mu >= 0.0, "threshold must be non-negative");
  const EigResult eig = hermitian_eig(a);
  std::vector<real> shrunk(eig.eigenvalues.size());
  for (index_t k = 0; k < shrunk.size(); ++k)
    shrunk[k] = std::max(eig.eigenvalues[k] - mu, 0.0);
  return rebuild(eig, shrunk);
}

real nuclear_norm(const Matrix& a) {
  const SvdResult s = svd(a);
  real acc = 0.0;
  for (const real sigma : s.singular_values) acc += sigma;
  return acc;
}

real spectral_norm(const Matrix& a) {
  const SvdResult s = svd(a);
  return s.singular_values.empty() ? 0.0 : s.singular_values[0];
}

index_t numerical_rank(const Matrix& a, real rel_tol) {
  const SvdResult s = svd(a);
  if (s.singular_values.empty() || s.singular_values[0] == 0.0) return 0;
  const real cutoff = rel_tol * s.singular_values[0];
  index_t rank = 0;
  for (const real sigma : s.singular_values)
    if (sigma > cutoff) ++rank;
  return rank;
}

Matrix kronecker(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j) {
      const cx aij = a(i, j);
      if (aij == cx{0.0, 0.0}) continue;
      for (index_t k = 0; k < b.rows(); ++k)
        for (index_t l = 0; l < b.cols(); ++l)
          out(i * b.rows() + k, j * b.cols() + l) = aij * b(k, l);
    }
  return out;
}

Matrix low_rank_approximation(const Matrix& a, index_t k) {
  const SvdResult s = svd(a);
  const index_t r = std::min<index_t>(k, s.singular_values.size());
  Matrix out(a.rows(), a.cols());
  for (index_t t = 0; t < r; ++t) {
    const Vector ut = s.u.col(t);
    const Vector vt = s.v.col(t);
    for (index_t i = 0; i < a.rows(); ++i) {
      const cx scaled = s.singular_values[t] * ut[i];
      for (index_t j = 0; j < a.cols(); ++j)
        out(i, j) += scaled * std::conj(vt[j]);
    }
  }
  return out;
}

}  // namespace mmw::linalg
