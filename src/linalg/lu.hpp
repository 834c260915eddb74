#pragma once

/// \file lu.hpp
/// The reference LU factorization on interleaved matrices (ZGETRF/ZGETRS
/// equivalents) and the operations built on it: matrix inverse,
/// determinant and log-determinant.
///
/// zgetrf_in_place is the unblocked rank-1-update loop at every order: the
/// plain reference the tests hold the blocked split-plane LU against
/// (linalg/split.hpp: split_getrf, panel + row-panel solve +
/// trailing-update tile), which makes the same CABS1 pivot choices and so
/// returns the same pivots. The blocked LU and the spin-up block's
/// Bunch-Kaufman LDL^T inside spin_block_solve are the tuned
/// factorizations, and retire the bulk of their flops in trailing updates
/// -- the level-3-rich structure the paper's LSMS relies on (§II-B).
///
/// The LSMS solver does not use a determinant: it integrates
/// z Tr tau_00(z) along the contour (lsms/solver.hpp) and reaches the
/// split-plane kernels through lsms::central_tau_schur. The reference assembly
/// (lsms::central_tau_block) and the small least-squares fits use this
/// one; `log_det` is a utility.

#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace wlsms::linalg {

/// Panel width of the blocked factorization (split_getrf). Narrow enough
/// that the trailing updates dominate the flop count already at LIZ-sized
/// matrices (n ~ 130: ~80 % of the factorization flops are booked as
/// ZGEMM).
inline constexpr std::size_t kLuBlockSize = 16;

/// In-place pivoted LU factorization A = P L U by unblocked rank-1
/// updates; on return `a` holds the packed L (unit lower) and U factors and
/// `pivots[k]` is the row swapped with row k at step k. Returns the
/// pivot-swap parity (+1/-1). Throws SingularMatrixError naming the column
/// of an exactly zero pivot. Books perf::cost::zgetrf_panel(n, n) flops
/// under perf::Kernel::kPanel.
int zgetrf_in_place(ZMatrix& a, std::vector<std::size_t>& pivots);

/// Solves A X = B in place given the packed factors and pivots from
/// zgetrf_in_place (or split_getrf's, re-interleaved by
/// SplitMatrix::copy_to). `b` points to `nrhs` column-major columns with
/// leading dimension `ldb` (>= order).
void zgetrs_in_place(const ZMatrix& lu, const std::vector<std::size_t>& pivots,
                     Complex* b, std::size_t nrhs, std::size_t ldb);

/// Pivoted LU factorization of a square matrix, A = P L U.
/// Holds the packed factors plus the pivot sequence.
class LuFactorization {
 public:
  /// Factorizes `a` (copied). Throws SingularMatrixError if a zero pivot is
  /// encountered (exactly singular input).
  explicit LuFactorization(ZMatrix a);

  std::size_t order() const { return lu_.rows(); }

  /// Solves A x = b in place; b has order() entries.
  void solve_in_place(Complex* b) const;

  /// Solves A X = B for a matrix of right-hand sides.
  ZMatrix solve(const ZMatrix& b) const;

  /// A^-1 via n solves against the identity.
  ZMatrix inverse() const;

  /// ln det A from the U diagonal: the real part is sum ln|U_ii| (exact);
  /// the imaginary part is sum arg(U_ii) (each in (-pi, pi]) plus pi when
  /// the row swaps are odd. The branch is not unwrapped, so the imaginary
  /// part is defined modulo 2 pi.
  Complex log_det() const;

  /// det A (may overflow/underflow for large matrices; prefer log_det).
  Complex det() const;

  const ZMatrix& packed() const { return lu_; }
  const std::vector<std::size_t>& pivots() const { return pivots_; }

 private:
  ZMatrix lu_;
  std::vector<std::size_t> pivots_;  // pivots_[k] = row swapped with row k
  int swap_parity_ = 1;              // +1 even number of swaps, -1 odd
};

/// Thrown when a factorization meets an exactly singular matrix.
class SingularMatrixError : public std::runtime_error {
 public:
  explicit SingularMatrixError(std::size_t column)
      : std::runtime_error("singular matrix: zero pivot in column " +
                           std::to_string(column)),
        column_(column) {}

  /// The elimination step (column) whose pivot was exactly zero.
  std::size_t column() const { return column_; }

 private:
  std::size_t column_;
};

/// Convenience: A^-1.
ZMatrix inverse(const ZMatrix& a);

/// Convenience: ln det A (see LuFactorization::log_det for branch rules).
Complex log_det(const ZMatrix& a);

}  // namespace wlsms::linalg
