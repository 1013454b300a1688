#include "linalg/eig.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.h"

namespace mmw::linalg {

namespace {

/// Telemetry handles for the Jacobi kernel, resolved once. Jacobi serves
/// the element-wise spectral maps of functions.h — above all the
/// nuclear-norm prox inside every ML solve — and svd(); the EM M-step,
/// FactoredHermitian::eig() and recovered_rank go through the QL solver
/// and are not counted here.
struct EigMetrics {
  obs::Counter calls;
  obs::Counter exhausted;
  obs::Histogram sweeps;
  obs::Gauge exit_offdiag;
  static const EigMetrics& get() {
    static const EigMetrics m{
        obs::Registry::global().counter("linalg.eig.jacobi_calls"),
        obs::Registry::global().counter("linalg.eig.sweeps_exhausted"),
        obs::Registry::global().histogram(
            "linalg.eig.jacobi_sweeps",
            obs::HistogramBuckets::linear(1.0, 1.0, 16)),
        obs::Registry::global().gauge("linalg.eig.exit_offdiag"),
    };
    return m;
  }
};

// The kernel below works on the raw interleaved (re, im) storage of
// row-major n×n matrices. Every complex product is spelled out in the
// operand order std::complex<double> uses — (xr·yr − xi·yi) + i(xr·yi +
// xi·yr), and element-wise scaling for a real factor — so the results are
// bit-identical to the std::complex formulation for finite input while
// skipping its NaN-recovery branch. The TU is built with
// -ffp-contract=off (DESIGN.md §12b) so no product is fused into an FMA.

/// Sum of squared magnitudes of the strictly-off-diagonal entries.
real off_diagonal_sq(const real* a, index_t n) {
  real acc = 0.0;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      if (i != j) {
        const real* e = a + 2 * (i * n + j);
        acc += e[0] * e[0] + e[1] * e[1];
      }
  return acc;
}

/// Applies the complex Jacobi rotation G on the (p,q) plane:
///   A ← Gᴴ A G,  V ← V G
/// where G[p][p] = c, G[p][q] = s·e^{iθ}, G[q][p] = −s·e^{−iθ}, G[q][q] = c.
/// `w` holds Vᵀ, so V's columns p and q are the contiguous rows p and q.
void apply_rotation(real* a, real* w, index_t n, index_t p, index_t q,
                    real c, real s, real ph_re, real ph_im) {
  // s·e^{iθ} and s·e^{−iθ}. Negation is exact, so the conjugates the row
  // update needs, conj(s·e^{−iθ}) and conj(s·e^{iθ}), are bitwise these
  // same two values swapped.
  const real sp_re = ph_re * s;
  const real sp_im = ph_im * s;
  const real spc_re = sp_re;
  const real spc_im = -ph_im * s;

  // Column update: [x, y] ← [x c − y s e^{−iθ}, x s e^{iθ} + y c] with
  // x = a_ip, y = a_iq.
  for (index_t i = 0; i < n; ++i) {
    real* x = a + 2 * (i * n + p);
    real* y = a + 2 * (i * n + q);
    const real xr = x[0], xi = x[1], yr = y[0], yi = y[1];
    x[0] = xr * c - (yr * spc_re - yi * spc_im);
    x[1] = xi * c - (yr * spc_im + yi * spc_re);
    y[0] = (xr * sp_re - xi * sp_im) + yr * c;
    y[1] = (xr * sp_im + xi * sp_re) + yi * c;
  }
  // Row update with Gᴴ on the left: [x, y] ← [c x − conj(s e^{−iθ}) y,
  // conj(s e^{iθ}) x + c y] with x = a_pj, y = a_qj.
  real* row_p = a + 2 * p * n;
  real* row_q = a + 2 * q * n;
  for (index_t j = 0; j < 2 * n; j += 2) {
    const real xr = row_p[j], xi = row_p[j + 1];
    const real yr = row_q[j], yi = row_q[j + 1];
    row_p[j] = xr * c - (sp_re * yr - sp_im * yi);
    row_p[j + 1] = xi * c - (sp_re * yi + sp_im * yr);
    row_q[j] = (spc_re * xr - spc_im * xi) + yr * c;
    row_q[j + 1] = (spc_re * xi + spc_im * xr) + yi * c;
  }
  // Accumulate eigenvectors: the column update applied to V.
  real* vp = w + 2 * p * n;
  real* vq = w + 2 * q * n;
  for (index_t i = 0; i < 2 * n; i += 2) {
    const real xr = vp[i], xi = vp[i + 1], yr = vq[i], yi = vq[i + 1];
    vp[i] = xr * c - (yr * spc_re - yi * spc_im);
    vp[i + 1] = xi * c - (yr * spc_im + yi * spc_re);
    vq[i] = (xr * sp_re - xi * sp_im) + yr * c;
    vq[i + 1] = (xr * sp_im + xi * sp_re) + yi * c;
  }
}

/// Interleaved (re, im) view of a matrix's row-major storage; std::complex
/// guarantees this array layout.
real* raw(Matrix& m) { return reinterpret_cast<real*>(m.data().data()); }
const real* raw(const Matrix& m) {
  return reinterpret_cast<const real*>(m.data().data());
}

}  // namespace

real EigResult::energy_fraction(index_t k) const {
  real total = 0.0;
  real top = 0.0;
  for (index_t i = 0; i < eigenvalues.size(); ++i) {
    const real mag = std::abs(eigenvalues[i]);
    total += mag;
    if (i < k) top += mag;
  }
  return total > 0.0 ? top / total : 0.0;
}

EigResult hermitian_eig(const Matrix& a_in, const JacobiOptions& opts,
                        real hermitian_tol) {
  MMW_REQUIRE_MSG(a_in.is_square(), "hermitian_eig requires a square matrix");
  const real scale = std::max(a_in.frobenius_norm(), 1e-300);
  MMW_REQUIRE_MSG(a_in.is_hermitian(hermitian_tol * std::max(1.0, scale)),
                  "hermitian_eig requires a Hermitian matrix");

  const index_t n = a_in.rows();
  // Symmetrize to wash out tiny Hermitian violations up front, in one pass:
  // a_ij = (a_ij + conj(a_ji))·(0.5 + 0i), the complex scaling spelled out.
  Matrix a_mat(n, n);
  real* a = raw(a_mat);
  const real* in = raw(a_in);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      const real* x = in + 2 * (i * n + j);
      const real* y = in + 2 * (j * n + i);
      const real re = x[0] + y[0];
      const real im = x[1] + -y[1];
      a[2 * (i * n + j)] = re * 0.5 - im * 0.0;
      a[2 * (i * n + j) + 1] = re * 0.0 + im * 0.5;
    }
  Matrix w_mat = Matrix::identity(n);  // Vᵀ
  real* w = raw(w_mat);

  const real stop = opts.tolerance * scale;
  const real skip = stop / static_cast<real>(n);
  int sweep = 0;
  real offdiag = std::sqrt(off_diagonal_sq(a, n));
  while (offdiag > stop) {
    if (++sweep > opts.max_sweeps) {
      if (obs::enabled()) EigMetrics::get().exhausted.add();
      throw convergence_error("hermitian_eig: Jacobi sweeps exhausted");
    }
    for (index_t p = 0; p + 1 < n; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        const real* apq = a + 2 * (p * n + q);
        const real r = std::abs(cx{apq[0], apq[1]});
        if (r <= skip) continue;
        // e^{iθ} with a_pq = r e^{iθ}.
        const real ph_re = apq[0] / r;
        const real ph_im = apq[1] / r;
        const real app = a[2 * (p * n + p)];
        const real aqq = a[2 * (q * n + q)];
        const real tau = (aqq - app) / (2.0 * r);
        const real t = (tau >= 0.0)
                           ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                           : -1.0 / (-tau + std::sqrt(1.0 + tau * tau));
        const real c = 1.0 / std::sqrt(1.0 + t * t);
        const real s = t * c;
        apply_rotation(a, w, n, p, q, c, s, ph_re, ph_im);
      }
    }
    offdiag = std::sqrt(off_diagonal_sq(a, n));
  }

  if (obs::enabled()) {
    const EigMetrics& m = EigMetrics::get();
    m.calls.add();
    m.sweeps.record(static_cast<real>(sweep));
    m.exit_offdiag.set(offdiag);
  }

  std::vector<real> diag(n);
  for (index_t i = 0; i < n; ++i) diag[i] = a[2 * (i * n + i)];

  // Sort eigenpairs descending by eigenvalue.
  std::vector<index_t> order(n);
  std::iota(order.begin(), order.end(), index_t{0});
  std::sort(order.begin(), order.end(),
            [&](index_t x, index_t y) { return diag[x] > diag[y]; });

  // The rotated matrix is spent; its buffer takes the sorted eigenvectors.
  EigResult result;
  result.eigenvalues.resize(n);
  cx* vecs = a_mat.data().data();
  const cx* v_t = w_mat.data().data();
  for (index_t k = 0; k < n; ++k) {
    result.eigenvalues[k] = diag[order[k]];
    const cx* column = v_t + order[k] * n;
    for (index_t i = 0; i < n; ++i) vecs[i * n + k] = column[i];
  }
  result.eigenvectors = std::move(a_mat);
  return result;
}

SvdResult svd(const Matrix& a, const JacobiOptions& opts) {
  MMW_REQUIRE_MSG(!a.empty(), "svd of an empty matrix");
  const bool tall = a.rows() >= a.cols();
  // Work with the smaller Gram matrix: AᴴA (n×n) when tall, AAᴴ otherwise.
  const Matrix gram = tall ? a.adjoint() * a : a * a.adjoint();
  const EigResult eig = hermitian_eig(gram, opts);

  const index_t r = gram.rows();
  SvdResult out;
  out.singular_values.resize(r);
  for (index_t k = 0; k < r; ++k)
    out.singular_values[k] = std::sqrt(std::max(eig.eigenvalues[k], 0.0));

  // Threshold below which a singular triplet is treated as part of the null
  // space: recovered vectors there would just amplify rounding noise.
  const real tiny =
      1e-13 * std::max(out.singular_values.empty() ? 0.0
                                                   : out.singular_values[0],
                       1.0);

  if (tall) {
    out.v = eig.eigenvectors;  // n×n
    out.u = Matrix(a.rows(), r);
    for (index_t k = 0; k < r; ++k) {
      if (out.singular_values[k] > tiny) {
        Vector uk = a * out.v.col(k);
        uk /= cx{out.singular_values[k], 0.0};
        out.u.set_col(k, uk);
      } else {
        out.u.set_col(k, Vector::basis(a.rows(), k % a.rows()));
      }
    }
  } else {
    out.u = eig.eigenvectors;  // m×m
    out.v = Matrix(a.cols(), r);
    for (index_t k = 0; k < r; ++k) {
      if (out.singular_values[k] > tiny) {
        Vector vk = a.adjoint() * out.u.col(k);
        vk /= cx{out.singular_values[k], 0.0};
        out.v.set_col(k, vk);
      } else {
        out.v.set_col(k, Vector::basis(a.cols(), k % a.cols()));
      }
    }
  }
  return out;
}

}  // namespace mmw::linalg
