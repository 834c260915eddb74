#pragma once

/// \file lu.hpp
/// LU factorization (ZGETRF/ZGETRS equivalents) and the derived operations
/// built on it: matrix inverse, determinant and log-determinant.
///
/// Two factorization algorithms are provided behind one interface: the
/// unblocked rank-1-update loop on the interleaved matrix (the reference)
/// and the blocked right-looking LU of linalg/split.hpp (panel +
/// row-panel solve + trailing-update tile on split real/imaginary planes),
/// which retires the bulk of its flops in the trailing update -- the
/// level-3-rich structure the paper's LSMS relies on (§II-B). The blocked
/// path deinterleaves its input, factors it and re-interleaves the result.
/// `kAuto` picks blocked at and above `kLuBlockedThreshold`.
///
/// The LSMS solver does not use a determinant: it integrates
/// z Tr tau_00(z) along the contour (lsms/solver.hpp) and reaches the
/// blocked LU through lsms::central_tau_schur. `log_det` is a utility.

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace wlsms::linalg {

/// Factorization algorithm selector.
enum class LuAlgorithm {
  kAuto,       ///< blocked for order >= kLuBlockedThreshold, else unblocked
  kUnblocked,  ///< reference rank-1-update loop
  kBlocked,    ///< right-looking blocked on split planes (split_getrf)
};

/// Panel width of the blocked factorization. Narrow enough that the
/// trailing updates dominate the flop count already at LIZ-sized matrices
/// (n ~ 130: ~80 % of the factorization flops are booked as ZGEMM).
inline constexpr std::size_t kLuBlockSize = 16;

/// Matrix order at and above which kAuto picks the blocked algorithm.
inline constexpr std::size_t kLuBlockedThreshold = 64;

/// In-place pivoted LU factorization A = P L U; on return `a` holds the
/// packed L (unit lower) and U factors and `pivots[k]` is the row swapped
/// with row k at step k. Returns the pivot-swap parity (+1/-1). Throws
/// SingularMatrixError on an exactly zero pivot. Flops are booked per
/// kernel (panel / TRSM / GEMM); `zgetrf_flops(n)` returns the exact total
/// the chosen algorithm will report (the same total for both: blocking
/// only moves flops from the panel to the TRSM and GEMM tags).
int zgetrf_in_place(ZMatrix& a, std::vector<std::size_t>& pivots,
                    LuAlgorithm algorithm = LuAlgorithm::kAuto);

/// Solves A X = B in place given the packed factors and pivots from
/// zgetrf_in_place. `b` points to `nrhs` column-major columns with leading
/// dimension `ldb` (>= order).
void zgetrs_in_place(const ZMatrix& lu, const std::vector<std::size_t>& pivots,
                     Complex* b, std::size_t nrhs, std::size_t ldb);

/// Exact instrumented flop count of zgetrf_in_place for an n x n matrix
/// under the given algorithm (the analytic side of the perf assertion).
std::uint64_t zgetrf_flops(std::size_t n,
                           LuAlgorithm algorithm = LuAlgorithm::kAuto);

/// Pivoted LU factorization of a square matrix, A = P L U.
/// Holds the packed factors plus the pivot sequence.
class LuFactorization {
 public:
  /// Factorizes `a` (copied). Throws SingularMatrixError if a zero pivot is
  /// encountered (exactly singular input).
  explicit LuFactorization(ZMatrix a,
                           LuAlgorithm algorithm = LuAlgorithm::kAuto);

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
