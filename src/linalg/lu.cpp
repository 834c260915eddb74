#include "linalg/lu.hpp"

#include <cmath>
#include <utility>

#include "perf/flops.hpp"

namespace wlsms::linalg {

namespace {

// Pivot magnitude |re| + |im| (LAPACK's CABS1, as in ZGETF2): a cheaper
// magnitude proxy that is within sqrt(2) of the modulus but NOT
// order-equivalent to it (cabs1(3+4i) = 7 > cabs1(6) = 6 while
// |3+4i| = 5 < 6), so it can select different — equally valid — pivots
// than std::abs pivoting would.
double cabs1(Complex z) { return std::abs(z.real()) + std::abs(z.imag()); }

}  // namespace

// Unblocked partial-pivoting LU by rank-1 updates, on the interleaved
// matrix. Row swaps are applied to the full rows immediately, and the pivot
// is the first row attaining the largest CABS1, exactly as the blocked
// split-plane kernel chooses it.
int zgetrf_in_place(ZMatrix& a, std::vector<std::size_t>& pivots) {
  WLSMS_EXPECTS(a.square());
  const std::size_t n = a.rows();
  pivots.resize(n);
  int parity = 1;
  for (std::size_t j = 0; j < n; ++j) {
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

    for (std::size_t c = j + 1; c < n; ++c) {
      const Complex ujc = a(j, c);
      if (ujc == Complex{0.0, 0.0}) continue;
      Complex* colc = a.col(c);
      for (std::size_t i = j + 1; i < n; ++i) colc[i] -= colj[i] * ujc;
    }
  }
  perf::add_flops(perf::Kernel::kPanel, perf::cost::zgetrf_panel(n, n));
  return parity;
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

LuFactorization::LuFactorization(ZMatrix a) : lu_(std::move(a)) {
  swap_parity_ = zgetrf_in_place(lu_, pivots_);
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
