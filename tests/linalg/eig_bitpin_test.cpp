// Bit-pin of the Jacobi eigensolver and the nuclear-norm prox built on it.
//
// The kernel spells its complex arithmetic out on raw storage (DESIGN.md
// §12b); these tests prove, independently of the figure goldens, that it
// still performs the exact operations of the std::complex formulation: the
// outputs are compared bit for bit with hexfloats captured from it. The
// inputs come from a local SplitMix64 and exact power-of-two scaling, not
// from randgen::Rng, so the pins do not move when the library's generator
// or the standard library's distributions change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "linalg/eig.h"
#include "linalg/functions.h"

namespace mmw::linalg {
namespace {

struct Case {
  std::string name;
  Matrix a;
  real mu;  ///< eigenvalue_soft_threshold threshold
};

/// SplitMix64 mapped to doubles in [-1, 1) with 53-bit resolution.
class Uniform {
 public:
  explicit Uniform(std::uint64_t seed) : state_(seed) {}
  real next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<real>(z >> 11) * 0x1.0p-52 - 1.0;
  }

 private:
  std::uint64_t state_;
};

/// Hermitian up to a ~1e-13 perturbation of the lower triangle, so the
/// solver's symmetrization pass has something to wash out.
Matrix seeded_hermitian(index_t n, std::uint64_t seed) {
  Uniform u(seed);
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    a(i, i) = cx{u.next(), 0.0};
    for (index_t j = i + 1; j < n; ++j) {
      const cx x{u.next(), u.next()};
      a(i, j) = x;
      a(j, i) = std::conj(x) + cx{u.next(), u.next()} * 0x1.0p-43;
    }
  }
  return a;
}

std::vector<Case> bitpin_cases() {
  std::vector<Case> out;
  std::uint64_t seed = 2016;
  for (const index_t n : {1, 2, 5, 6, 8, 16})
    out.push_back({"seeded_n" + std::to_string(n), seeded_hermitian(n, seed++),
                   0.25});

  // Already diagonal: zero rotations, a pure sort, including a −0.0
  // eigenvalue and signed-zero off-diagonals.
  Matrix diag(5, 5);
  const real d[] = {3.0, -1.0, 2.0, -0.0, 0.5};
  for (index_t i = 0; i < 5; ++i) {
    diag(i, i) = cx{d[i], 0.0};
    for (index_t j = 0; j < 5; ++j)
      if (i != j) diag(i, j) = cx{-0.0, (i < j) ? -0.0 : 0.0};
  }
  out.push_back({"diagonal_n5", diag, 0.75});

  // 2I + 11ᵀ: eigenvalue 8 once and 2 five times, so the tie order of
  // the descending sort is pinned too.
  Matrix repeated(6, 6);
  for (index_t i = 0; i < 6; ++i)
    for (index_t j = 0; j < 6; ++j) repeated(i, j) = cx{i == j ? 3.0 : 1.0, 0.0};
  out.push_back({"repeated_n6", repeated, 1.5});

  // Hermitian with signed zeros throughout: real off-diagonals carrying
  // −0.0 imaginary parts (conjugated to +0.0 below the diagonal), −0.0 on
  // the diagonal and whole ±0 entries.
  Matrix zeros(5, 5);
  Uniform u(61016);
  for (index_t i = 0; i < 5; ++i) {
    zeros(i, i) = cx{i % 2 == 0 ? -0.0 : u.next(), 0.0};
    for (index_t j = i + 1; j < 5; ++j) {
      cx x;
      switch ((i + j) % 3) {
        case 0: x = cx{u.next(), -0.0}; break;
        case 1: x = cx{-0.0, u.next()}; break;
        default: x = cx{-0.0, -0.0}; break;
      }
      zeros(i, j) = x;
      zeros(j, i) = std::conj(x);
    }
  }
  out.push_back({"signed_zeros_n5", zeros, 0.125});
  return out;
}


struct Expected {
  const char* name;
  std::vector<real> eigenvalues;
  std::vector<real> eigenvectors;    ///< row-major, interleaved re/im
  std::vector<real> soft_threshold;  ///< row-major, interleaved re/im
};

const std::vector<Expected>& expected() {
  static const std::vector<Expected> table = {
#include "eig_bitpin_expected.inc"
  };
  return table;
}

std::vector<real> interleaved(const Matrix& m) {
  std::vector<real> out;
  out.reserve(2 * m.data().size());
  for (const cx& z : m.data()) {
    out.push_back(z.real());
    out.push_back(z.imag());
  }
  return out;
}

std::string hex(real x) {
  std::ostringstream os;
  os << std::hexfloat << x;
  return os.str();
}

/// Bitwise comparison (distinguishes −0.0 from +0.0), reporting the first
/// mismatching index in hexfloat.
::testing::AssertionResult same_bits(const std::vector<real>& got,
                                     const std::vector<real>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  for (index_t i = 0; i < got.size(); ++i)
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i]))
      return ::testing::AssertionFailure() << "element " << i << ": "
                                           << hex(got[i]) << " vs "
                                           << hex(want[i]);
  return ::testing::AssertionSuccess();
}

TEST(EigBitPinTest, CoversEveryCase) {
  const auto cases = bitpin_cases();
  ASSERT_EQ(cases.size(), expected().size());
  for (index_t k = 0; k < cases.size(); ++k)
    EXPECT_EQ(cases[k].name, expected()[k].name);
}

TEST(EigBitPinTest, HermitianEigMatchesPinnedBits) {
  const auto cases = bitpin_cases();
  for (index_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE(cases[k].name);
    const EigResult e = hermitian_eig(cases[k].a);
    EXPECT_TRUE(same_bits(e.eigenvalues, expected()[k].eigenvalues));
    EXPECT_TRUE(same_bits(interleaved(e.eigenvectors),
                          expected()[k].eigenvectors));
  }
}

TEST(EigBitPinTest, SoftThresholdMatchesPinnedBits) {
  const auto cases = bitpin_cases();
  for (index_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE(cases[k].name);
    const Matrix soft = eigenvalue_soft_threshold(cases[k].a, cases[k].mu);
    EXPECT_TRUE(same_bits(interleaved(soft), expected()[k].soft_threshold));
  }
}

TEST(EigBitPinTest, HermitianFormEqualsDotOfProduct) {
  // hermitian_form fuses vᴴ(Mv) without the Mv temporary; it must stay
  // bit-identical to the two-step form for Hermitian and general M alike.
  Uniform u(7);
  for (const index_t n : {1, 2, 3, 5, 6, 8, 16, 64}) {
    for (int rep = 0; rep < 8; ++rep) {
      Matrix m = rep % 2 == 0 ? seeded_hermitian(n, 100 + rep)
                              : Matrix(n, n);
      if (rep % 2 == 1)
        for (cx& z : m.data()) z = cx{u.next(), u.next()};
      Vector v(n);
      for (index_t i = 0; i < n; ++i) v[i] = cx{u.next(), u.next()};
      if (rep == 2) v[0] = cx{-0.0, 0.0};
      const real fused = hermitian_form(v, m);
      const real two_step = dot(v, m * v).real();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fused),
                std::bit_cast<std::uint64_t>(two_step))
          << "n=" << n << " rep=" << rep << " fused=" << hex(fused)
          << " two_step=" << hex(two_step);
    }
  }
}

}  // namespace
}  // namespace mmw::linalg
