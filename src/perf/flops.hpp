#pragma once

/// \file flops.hpp
/// Floating-point-operation accounting with per-kernel attribution.
///
/// The paper instruments WL-LSMS with PAPI FP_OPS counters to report the
/// sustained petaflop number (Table II) and attributes "the bulk of the
/// calculation" to ZGEMM (§II-B). PAPI is hardware-specific, so this
/// library provides the equivalent observable in software: every linear
/// algebra kernel reports the number of real floating-point operations it
/// retired into a thread-local counter, tagged with the kernel that retired
/// them, so the harness can report both sustained Flop/s and the fraction
/// of flops flowing through ZGEMM. The discrete-event cluster model
/// (src/cluster) combines these counts with the machine description to
/// compute sustained Flop/s at scale.

#include <array>
#include <cstddef>
#include <cstdint>

namespace wlsms::perf {

/// Kernel classes flops are attributed to. kOther collects everything that
/// is not one of the named level-3 kernels; no linalg kernel books it.
enum class Kernel : unsigned {
  kZgemm = 0,  ///< matrix-matrix products: the blocked LU's trailing
               ///< update, the tile products of the inverse, the spin-block
               ///< Schur and coupling products, and the plain reference zgemm
  kTrsm = 1,   ///< triangular solves (row-panel substitution, GETRS, the
               ///< diagonal-block substitutions of the inverse)
  kPanel = 2,  ///< LU panel steps (pivoting, scaling, in-panel updates), and
               ///< the whole unblocked reference LU
  kOther = 3,  ///< everything else (the unattributed add_flops overload)
};

inline constexpr std::size_t kKernelCount = 4;

/// Adds `count` retired real floating-point operations to this thread's
/// counter for `kernel`. Kernels call this once per call with an analytic
/// count, so the overhead is negligible.
void add_flops(Kernel kernel, std::uint64_t count);

/// Unattributed convenience overload: books under Kernel::kOther.
void add_flops(std::uint64_t count);

/// Flops retired by the calling thread since thread start (monotonic),
/// summed over kernels.
std::uint64_t thread_flops();

/// Flops retired by all threads that ever reported, aggregated over kernels.
std::uint64_t total_flops();

/// Aggregated flops retired by one kernel class across all threads.
std::uint64_t total_flops(Kernel kernel);

/// Publishes the calling thread's undrained tally to the global counters.
/// Each thread otherwise keeps up to 2^20 flops per kernel to itself until
/// it drains or exits, and only the calling thread's own undrained flops
/// show in total_flops(). Code that runs flop-counting kernels on pool
/// threads calls this on every thread at the end of its share of the work
/// (LsmsSolver::solve_zones does, on every OpenMP team thread).
void drain_thread_flops();

/// RAII window over the *global* counters: records the totals at
/// construction and reports deltas. It counts the calling thread's flops
/// exactly, and another thread's once that thread has drained them
/// (drain_thread_flops, or thread exit). So a window is exact around work
/// on the calling thread and around an OpenMP region whose threads drain
/// before it closes, as every solve_zones call's do; around other OpenMP
/// regions it reads low by whatever the pool threads still hold.
class FlopWindow {
 public:
  FlopWindow();
  /// Flops retired globally since construction, all kernels.
  std::uint64_t elapsed() const;
  /// Flops retired globally since construction by one kernel class.
  std::uint64_t elapsed(Kernel kernel) const;
  /// Fraction of the window's flops retired by ZGEMM (0 if none retired).
  double gemm_fraction() const;

 private:
  std::array<std::uint64_t, kKernelCount> start_{};
};

/// Analytic real-flop counts for the complex kernels (1 complex multiply =
/// 6 real flops, 1 complex add = 2 real flops, so 1 complex fused
/// multiply-add = 8 real flops), matching what PAPI would count on scalar
/// hardware.
namespace cost {

/// C += A*B with A (m x k), B (k x n), complex double.
constexpr std::uint64_t zgemm(std::uint64_t m, std::uint64_t n,
                              std::uint64_t k) {
  return 8ULL * m * n * k;
}

/// LU factorization with partial pivoting of an n x n complex matrix
/// (classical leading-order count; the DES cost model uses this).
constexpr std::uint64_t zgetrf(std::uint64_t n) {
  return 8ULL * n * n * n / 3ULL;
}

/// Triangular solves for one right-hand side after zgetrf.
constexpr std::uint64_t zgetrs(std::uint64_t n, std::uint64_t nrhs) {
  return 8ULL * n * n * nrhs;
}

/// Unit-lower triangular solve L X = B with L (n x n, unit diagonal) and
/// nrhs right-hand sides: per column, n(n-1)/2 complex fused multiply-adds.
constexpr std::uint64_t ztrsm_unit_lower(std::uint64_t n,
                                         std::uint64_t nrhs) {
  return n == 0 ? 0 : 4ULL * n * (n - 1) * nrhs;
}

/// Inverse of an n x n unit-lower triangular matrix, column c by forward
/// substitution on e_c from row c down: the sum of ztrsm_unit_lower(m, 1)
/// over m = 1..n.
constexpr std::uint64_t ztrtri_unit_lower(std::uint64_t n) {
  return n == 0 ? 0 : 4ULL * (n - 1) * n * (n + 1) / 3ULL;
}

/// Unblocked partial-pivoting LU of an m x n panel (m >= n): per column j,
/// one reciprocal (booked as 6 flops), (m-j-1) complex scalings (6 flops
/// each) and (m-j-1)(n-j-1) complex fused multiply-adds (8 flops each).
/// This is the exact count the panel kernel retires, used so instrumented
/// counters and the analytic model agree to the flop.
constexpr std::uint64_t zgetrf_panel(std::uint64_t m, std::uint64_t n) {
  std::uint64_t total = 0;
  const std::uint64_t cols = m < n ? m : n;
  for (std::uint64_t j = 0; j < cols; ++j) {
    const std::uint64_t below = m - j - 1;
    total += 6 + 6 * below + 8 * below * (n - j - 1);
  }
  return total;
}

/// Blocked right-looking LU of an n x n matrix with block size nb: per
/// panel, a panel factorization + a unit-lower TRSM on the row panel + a
/// ZGEMM trailing update. Exactly the sum of what the blocked kernel's
/// pieces retire, and equal to zgetrf_panel(n, n): blocking regroups the
/// unblocked elimination's arithmetic without adding any.
constexpr std::uint64_t zgetrf_blocked(std::uint64_t n, std::uint64_t nb) {
  std::uint64_t total = 0;
  for (std::uint64_t k0 = 0; k0 < n; k0 += nb) {
    const std::uint64_t w = (n - k0) < nb ? (n - k0) : nb;
    const std::uint64_t rem = n - k0 - w;
    total += zgetrf_panel(n - k0, w);
    if (rem > 0) total += ztrsm_unit_lower(w, rem) + zgemm(rem, rem, w);
  }
  return total;
}

/// Bunch-Kaufman LDL^T panel of a complex symmetric matrix: columns
/// [k0, k0 + w) over the m = n - k0 rows from k0 down. Per column c of the
/// panel, the update of its lower part (m - c rows, the diagonal included)
/// by the c panel columns before it (8 flops per entry and column), one
/// reciprocal of the pivot (6) and m - c - 1 scalings by it (6 each).
/// Counted as if every pivot were 1x1: a 2x2 pivot's scaling and the
/// on-demand update of an interchange candidate's column are not booked, so
/// the count does not depend on the pivot sequence.
constexpr std::uint64_t zsytrf_panel(std::uint64_t m, std::uint64_t w) {
  std::uint64_t total = 0;
  for (std::uint64_t c = 0; c < w && c < m; ++c)
    total += 8 * c * (m - c) + 6 * (m - c);
  return total;
}

/// The trailing update after an LDL^T panel of width w: the lower triangle
/// (diagonal included) of the r x r remainder minus L21 (L D)^T, depth w.
constexpr std::uint64_t zsytrf_trailing(std::uint64_t r, std::uint64_t w) {
  return 4 * w * r * (r + 1);
}

/// Unblocked LDL^T of an n x n complex symmetric matrix: every entry (i, j)
/// of the lower triangle takes one fused multiply-add per column before j,
/// and every column one reciprocal and its scalings:
/// (4/3)(n - 1) n (n + 1) + 3 n (n + 1), (4/3) n^3 to leading order, half of
/// zgetrf. Panels of any widths, each with its trailing update, book the
/// same total.
constexpr std::uint64_t zsytrf(std::uint64_t n) {
  return n == 0 ? 0 : 4 * (n - 1) * n * (n + 1) / 3 + 3 * n * (n + 1);
}

/// The inverse of an n x n complex symmetric matrix from its LDL^T factors,
/// A^-1 = P L^-T D^-1 L^-1 P^T: L^-1 by forward substitution on the
/// identity (ztrtri_unit_lower), D^-1 applied to its n(n + 1)/2 entries (6
/// flops each, counted as 1x1 blocks), and the lower triangle of
/// (D^-1 L^-1)^T L^-1, whose entry (i, j) sums the n - i rows both columns
/// share (8 flops each). The mirror and the interchanges retire no flops.
/// (8/3) n^3 to leading order, as much as one zgetrf.
constexpr std::uint64_t zsytri(std::uint64_t n) {
  return ztrtri_unit_lower(n) + 3 * n * (n + 1) +
         4 * n * (n + 1) * (n + 2) / 3;
}

}  // namespace cost

}  // namespace wlsms::perf
