#pragma once

/// \file split.hpp
/// Split-complex dense kernels: the blocked LU, and the spin-block solve of
/// the LIZ member block, on separate real and imaginary planes.
///
/// Interleaved std::complex storage forces every vector loop to shuffle
/// real and imaginary parts apart and back; short loops over it (the LU
/// panel, the row-panel triangular solve, the substitutions) ran at a few
/// GFlop/s, and the trailing ZGEMM packed and unpacked its operands on
/// every k = 16 update. Here the matrix lives as planes from the start, so
/// every complex multiply-add is four real FMAs on whole vectors:
///
///  - panel: unblocked partial pivoting over kLuBlockSize columns, with a
///    vectorized first-max CABS1 pivot search;
///  - row panel: U12 = L11^-1 A12 by substitution, one column group at a
///    time held in registers;
///  - trailing update: A22 -= L21 U12 by a register tile that loads C from
///    the planes, reads L21 and U12 where they lie, and stores C back;
///  - spin_block_solve: the Bunch-Kaufman LDL^T of the complex symmetric
///    spin-up block F (panels of kLuBlockSize columns, lower-triangle
///    trailing updates through the same tile), F^-1 from its factors (the
///    forward substitution and the tile on the lower triangle of
///    L^-T D^-1 L^-1, mirrored), the Schur complement S2 and its LU, a
///    two-column solve and the 2x2 closing products.
///
/// Flops are booked per step under perf::Kernel::kPanel / kTrsm / kZgemm;
/// split_getrf's totals equal perf::cost::zgetrf_blocked(n, kLuBlockSize)
/// (which is also the unblocked count: blocking only moves flops between
/// kernels), F's LDL^T books perf::cost::zsytrf(n) and its inverse
/// perf::cost::zsytri(n), both whatever the pivots.

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "linalg/matrix.hpp"

namespace wlsms::linalg {

/// Column-major complex matrix stored as real and imaginary planes: column
/// c holds its ld() real parts followed by its ld() imaginary parts. ld()
/// is rows() rounded up to a whole block of kLuBlockSize rows, which is a
/// whole number of vectors on every ISA, so the kernels never run a row
/// remainder loop; the pad rows are zero and every kernel keeps them zero.
/// Columns start stride() doubles apart: both planes plus one spare cache
/// line, so that columns a few apart never sit a multiple of 4 KiB apart
/// (at ld() = 128 they would, and the CPU would then stall loads from one
/// column behind pending stores to another). Storage is 64-byte aligned
/// (one AVX-512 vector, one cache line).
class SplitMatrix {
 public:
  SplitMatrix() = default;

  /// rows x cols of zeros.
  SplitMatrix(std::size_t rows, std::size_t cols);

  /// Deinterleaves `m`.
  explicit SplitMatrix(const ZMatrix& m);

  /// Becomes rows x cols of zeros, reusing the storage when it is large
  /// enough (workspaces reshaped from zone to zone do not reallocate).
  void zero(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t ld() const { return ld_; }
  std::size_t stride() const { return stride_for(ld_); }

  /// Doubles from one column's start to the next, for leading dimension
  /// ld: both planes plus one cache line.
  static constexpr std::size_t stride_for(std::size_t ld) {
    return 2 * ld + 8;
  }

  /// The real / imaginary plane of column c (ld() doubles each).
  double* re(std::size_t c) { return data_.data() + stride() * c; }
  double* im(std::size_t c) { return re(c) + ld_; }
  const double* re(std::size_t c) const { return data_.data() + stride() * c; }
  const double* im(std::size_t c) const { return re(c) + ld_; }

  Complex operator()(std::size_t r, std::size_t c) const {
    return {re(c)[r], im(c)[r]};
  }
  void set(std::size_t r, std::size_t c, Complex v) {
    re(c)[r] = v.real();
    im(c)[r] = v.imag();
  }

  /// Re-interleaves into `m` (resized to rows() x cols()).
  void copy_to(ZMatrix& m) const;

 private:
  template <class T>
  struct Aligned64 {
    using value_type = T;
    Aligned64() = default;
    template <class U>
    Aligned64(const Aligned64<U>&) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void deallocate(T* p, std::size_t) {
      ::operator delete(p, std::align_val_t{64});
    }
    bool operator==(const Aligned64&) const { return true; }
  };

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
  std::vector<double, Aligned64<double>> data_;
};

/// In-place pivoted blocked LU of the square matrix `a`, A = P L U: on
/// return `a` holds the packed unit-lower L and U factors and pivots[k] is
/// the row swapped with row k at step k (row swaps are applied across every
/// column, as the unblocked reference does, so the pivots are identical to
/// it). Returns the swap parity (+1/-1). Throws SingularMatrixError naming
/// the column of an exactly zero pivot.
int split_getrf(SplitMatrix& a, std::vector<std::size_t>& pivots);

/// Scratch of spin_block_solve, sized on first use per order and reused
/// across calls (one per thread), so the solve allocates nothing in steady
/// state.
struct SpinBlockWorkspace {
  SplitMatrix f;          ///< F and its LDL^T, -(D^-1 L^-1)^T, S2 and its LU
  SplitMatrix f_inverse;  ///< the LDL^T panel's L D columns, then F^-1
  SplitMatrix l_inverse;  ///< the panel's transposed copy, then L^-1
  SplitMatrix d_inverse;  ///< D^-1 (negated by the inverse, which scales
                          ///< by -D^-1): its diagonal, and (column 1) the
                          ///< off-diagonal of each 2x2 block at its first row
  SplitMatrix vectors;    ///< columns T_du, w = F^-1 b, T_ud o (F^-1 c)
  SplitMatrix x;          ///< the two right-hand sides, then their solution
  /// F's symmetric interchanges: step k swapped rows and columns k and
  /// f_pivots[k] (a 2x2 block at (k, k + 1) swaps at k + 1 only).
  std::vector<std::size_t> f_pivots;
  std::vector<std::size_t> f_pairs;    ///< first column of each 2x2 block
  std::vector<std::size_t> s2_pivots;  ///< S2's row swaps (split_getrf)
};

/// The member elimination of the zone's tau solve (lsms/kkr.hpp), and the
/// one entry point an offload backend would intercept. In spin-major order
/// the 2L x 2L member block is
///
///   A = [ K + T_uu   T_ud     ]     B = [ b  0 ]     C = [ c^T  0  ]
///       [ T_du       K + T_dd ]         [ 0  b ]         [ 0   c^T ]
///
/// with the L x L hopping `k` (complex symmetric, k == k^T bit for bit,
/// with a zero diagonal), the L-vectors `b` and `c` (L x 1), and diagonal
/// T blocks: `site_blocks[j]` is member j's row-major 2x2 {T_uu, T_ud,
/// T_du, T_dd}. F = K + T_uu is then complex symmetric, and the solve reads
/// only its lower triangle: it factors F = P L D L^T P^T (Bunch-Kaufman,
/// 1x1 and 2x2 pivots, symmetric interchanges inside F), forms
/// F^-1 = P L^-T D^-1 L^-1 P^T, factors the Schur complement
/// S2 = K + T_dd - T_du F^-1 T_ud (partial pivoting inside S2), and
/// subtracts C A^-1 B from the 2x2 block `s` (column-major: {s00, s10, s01,
/// s11}). No pivoting crosses the two spin blocks; a singular F throws
/// SingularMatrixError naming F's column, and a zero pivot in S2 names S2's
/// column. Flops: zsytrf(L), zsytri(L), zgetrf_blocked(L) and
/// spin_block_coupling_flops(L), (20/3) L^3 to leading order.
void spin_block_solve(const SplitMatrix& k, const SplitMatrix& b,
                      const SplitMatrix& c,
                      const std::array<Complex, 4>* site_blocks,
                      SpinBlockWorkspace& ws, std::array<Complex, 4>& s);

/// The flops spin_block_solve books at block order l besides F's LDL^T and
/// inverse and S2's LU: the Schur update of S2, w = F^-1 b and F^-1 c, the
/// two-column solve, and the closing scalings and products.
std::uint64_t spin_block_coupling_flops(std::size_t l);

}  // namespace wlsms::linalg
