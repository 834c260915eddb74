#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/blas.hpp"
#include "perf/flops.hpp"

namespace wlsms::linalg {

namespace {

// Unblocked partial-pivoting factorization of the panel occupying columns
// [k0, k0+width) of an n x n matrix, rows k0..n-1. Row swaps are applied to
// the *full* rows immediately (equivalent to LAPACK's deferred ZLASWP), so
// the packed factors are laid out exactly as the unblocked algorithm leaves
// them. Rank-1 updates stay inside the panel columns; the trailing matrix
// is updated by the caller via TRSM + GEMM. Returns the swap parity
// contribution of this panel.
// Pivot magnitude |re| + |im| (LAPACK's CABS1, as in ZGETF2): a cheaper
// magnitude proxy that is within sqrt(2) of the modulus but NOT
// order-equivalent to it (cabs1(3+4i) = 7 > cabs1(6) = 6 while
// |3+4i| = 5 < 6), so it can select different — equally valid — pivots
// than the std::abs pivoting used before the blocked rewrite. Factors may
// therefore differ from earlier releases in row ordering and rounding,
// within normal partial-pivoting error bounds.
double cabs1(Complex z) { return std::abs(z.real()) + std::abs(z.imag()); }

int factor_panel(ZMatrix& a, std::vector<std::size_t>& pivots, std::size_t k0,
                 std::size_t width) {
  const std::size_t n = a.rows();
  int parity = 1;
  for (std::size_t j = k0; j < k0 + width; ++j) {
    std::size_t pivot_row = j;
    double pivot_mag = cabs1(a(j, j));
    for (std::size_t i = j + 1; i < n; ++i) {
      const double mag = cabs1(a(i, j));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (pivot_mag == 0.0) throw SingularMatrixError(j);
    pivots[j] = pivot_row;
    if (pivot_row != j) {
      parity = -parity;
      for (std::size_t c = 0; c < n; ++c) std::swap(a(j, c), a(pivot_row, c));
    }

    const Complex inv_pivot = Complex{1.0, 0.0} / a(j, j);
    Complex* colj = a.col(j);
    for (std::size_t i = j + 1; i < n; ++i) colj[i] *= inv_pivot;

    for (std::size_t c = j + 1; c < k0 + width; ++c) {
      const Complex ujc = a(j, c);
      if (ujc == Complex{0.0, 0.0}) continue;
      Complex* colc = a.col(c);
      for (std::size_t i = j + 1; i < n; ++i) colc[i] -= colj[i] * ujc;
    }
  }
  perf::add_flops(perf::Kernel::kPanel,
                  perf::cost::zgetrf_panel(n - k0, width));
  return parity;
}

// B (width x nrhs columns starting at `b`, leading dimension ldb) :=
// L11^{-1} B with L11 the unit-lower panel block a[k0.., k0..].
void trsm_unit_lower(const ZMatrix& a, std::size_t k0, std::size_t width,
                     Complex* b, std::size_t nrhs, std::size_t ldb) {
  for (std::size_t r = 0; r < nrhs; ++r) {
    Complex* col = b + r * ldb;
    for (std::size_t kk = 0; kk < width; ++kk) {
      const Complex bk = col[kk];
      if (bk == Complex{0.0, 0.0}) continue;
      const Complex* lk = a.col(k0 + kk) + k0;
      for (std::size_t i = kk + 1; i < width; ++i) col[i] -= lk[i] * bk;
    }
  }
  perf::add_flops(perf::Kernel::kTrsm,
                  perf::cost::ztrsm_unit_lower(width, nrhs));
}

int zgetrf_unblocked(ZMatrix& a, std::vector<std::size_t>& pivots) {
  return factor_panel(a, pivots, 0, a.rows());
}

// Right-looking blocked LU: per pivot panel, factorize the panel, solve
// the row panel against its unit-lower block, and fold the product of the
// two into the trailing matrix with one ZGEMM.
int zgetrf_blocked(ZMatrix& a, std::vector<std::size_t>& pivots) {
  const std::size_t n = a.rows();
  int parity = 1;
  for (std::size_t k0 = 0; k0 < n; k0 += kLuBlockSize) {
    const std::size_t w = std::min(kLuBlockSize, n - k0);
    parity *= factor_panel(a, pivots, k0, w);
    const std::size_t rem = n - k0 - w;
    if (rem == 0) break;
    // Row panel: U12 = L11^{-1} A12.
    trsm_unit_lower(a, k0, w, a.col(k0 + w) + k0, rem, n);
    // Trailing update A22 -= L21 * U12 — the GEMM that dominates.
    zgemm_view(rem, rem, w, Complex{-1.0, 0.0}, a.col(k0) + k0 + w, n,
               a.col(k0 + w) + k0, n, Complex{1.0, 0.0},
               a.col(k0 + w) + k0 + w, n);
  }
  return parity;
}

bool use_blocked(std::size_t n, LuAlgorithm algorithm) {
  switch (algorithm) {
    case LuAlgorithm::kUnblocked:
      return false;
    case LuAlgorithm::kBlocked:
      return true;
    case LuAlgorithm::kAuto:
    default:
      return n >= kLuBlockedThreshold;
  }
}

}  // namespace

int zgetrf_in_place(ZMatrix& a, std::vector<std::size_t>& pivots,
                    LuAlgorithm algorithm) {
  WLSMS_EXPECTS(a.square());
  const std::size_t n = a.rows();
  pivots.resize(n);
  if (n == 0) return 1;
  return use_blocked(n, algorithm) ? zgetrf_blocked(a, pivots)
                                   : zgetrf_unblocked(a, pivots);
}

void zgetrs_in_place(const ZMatrix& lu, const std::vector<std::size_t>& pivots,
                     Complex* b, std::size_t nrhs, std::size_t ldb) {
  const std::size_t n = lu.rows();
  WLSMS_EXPECTS(pivots.size() == n && ldb >= n);
  for (std::size_t r = 0; r < nrhs; ++r) {
    Complex* col = b + r * ldb;
    // Apply row interchanges.
    for (std::size_t k = 0; k < n; ++k)
      if (pivots[k] != k) std::swap(col[k], col[pivots[k]]);
    // Forward substitution with unit-lower L.
    for (std::size_t k = 0; k < n; ++k) {
      const Complex bk = col[k];
      if (bk == Complex{0.0, 0.0}) continue;
      const Complex* colk = lu.col(k);
      for (std::size_t i = k + 1; i < n; ++i) col[i] -= colk[i] * bk;
    }
    // Backward substitution with U.
    for (std::size_t k = n; k-- > 0;) {
      col[k] /= lu(k, k);
      const Complex bk = col[k];
      const Complex* colk = lu.col(k);
      for (std::size_t i = 0; i < k; ++i) col[i] -= colk[i] * bk;
    }
  }
  perf::add_flops(perf::Kernel::kTrsm, perf::cost::zgetrs(n, nrhs));
}

std::uint64_t zgetrf_flops(std::size_t n, LuAlgorithm algorithm) {
  return use_blocked(n, algorithm)
             ? perf::cost::zgetrf_blocked(n, kLuBlockSize)
             : perf::cost::zgetrf_panel(n, n);
}

LuFactorization::LuFactorization(ZMatrix a, LuAlgorithm algorithm)
    : lu_(std::move(a)) {
  swap_parity_ = zgetrf_in_place(lu_, pivots_, algorithm);
}

void LuFactorization::solve_in_place(Complex* b) const {
  zgetrs_in_place(lu_, pivots_, b, 1, order());
}

ZMatrix LuFactorization::solve(const ZMatrix& b) const {
  WLSMS_EXPECTS(b.rows() == order());
  ZMatrix x = b;
  zgetrs_in_place(lu_, pivots_, x.data(), x.cols(), order());
  return x;
}

ZMatrix LuFactorization::inverse() const {
  return solve(ZMatrix::identity(order()));
}

Complex LuFactorization::log_det() const {
  double log_abs = 0.0;
  double arg_sum = (swap_parity_ < 0) ? std::acos(-1.0) : 0.0;
  for (std::size_t k = 0; k < order(); ++k) {
    const Complex u = lu_(k, k);
    log_abs += std::log(std::abs(u));
    arg_sum += std::arg(u);
  }
  return {log_abs, arg_sum};
}

Complex LuFactorization::det() const {
  Complex d{static_cast<double>(swap_parity_), 0.0};
  for (std::size_t k = 0; k < order(); ++k) d *= lu_(k, k);
  return d;
}

ZMatrix inverse(const ZMatrix& a) { return LuFactorization(a).inverse(); }

Complex log_det(const ZMatrix& a) { return LuFactorization(a).log_det(); }

}  // namespace wlsms::linalg
