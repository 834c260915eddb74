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
/// every complex multiply-add is four real FMAs on whole vectors and no
/// step packs, transposes or re-interleaves anything:
///
///  - panel: unblocked partial pivoting over kLuBlockSize columns, with a
///    vectorized first-max CABS1 pivot search;
///  - row panel: U12 = L11^-1 A12 by substitution, one column group at a
///    time held in registers;
///  - trailing update: A22 -= L21 U12 by a register tile that loads C from
///    the planes, reads L21 and U12 where they lie, and stores C back;
///  - spin_block_solve: the LU of the spin-up block F, F^-1 from its
///    factors (the same substitution kernels and tile), the Schur
///    complement S2 and its LU, a two-column solve and the 2x2 closing
///    products.
///
/// Flops are booked per step under perf::Kernel::kPanel / kTrsm / kZgemm;
/// split_getrf's totals equal perf::cost::zgetrf_blocked(n, kLuBlockSize)
/// (which is also the unblocked count: blocking only moves flops between
/// kernels), and the inverse's equal perf::cost::zgetri(n).

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
  SplitMatrix f;          ///< F and its LU, then S2 and its LU
  SplitMatrix f_inverse;  ///< F^-1
  SplitMatrix vectors;    ///< columns T_du, w = F^-1 b, T_ud o (F^-T c)
  SplitMatrix x;          ///< the two right-hand sides, then their solution
  std::vector<std::size_t> f_pivots;   ///< F's row swaps (split_getrf)
  std::vector<std::size_t> s2_pivots;  ///< S2's row swaps
};

/// The member elimination of the zone's tau solve (lsms/kkr.hpp), and the
/// one entry point an offload backend would intercept. In spin-major order
/// the 2L x 2L member block is
///
///   A = [ K + T_uu   T_ud     ]     B = [ b  0 ]     C = [ c^T  0  ]
///       [ T_du       K + T_dd ]         [ 0  b ]         [ 0   c^T ]
///
/// with the L x L hopping `k` (zero diagonal), the L-vectors `b` and `c`
/// (L x 1), and diagonal T blocks: `site_blocks[j]` is member j's row-major
/// 2x2 {T_uu, T_ud, T_du, T_dd}. The solve factors F = K + T_uu, forms
/// F^-1, factors the Schur complement S2 = K + T_dd - T_du F^-1 T_ud, and
/// subtracts C A^-1 B from the 2x2 block `s` (column-major: {s00, s10, s01,
/// s11}). No pivoting crosses the two spin blocks; a zero pivot in F or S2
/// throws SingularMatrixError. Flops: two zgetrf_blocked(L), zgetri(L) and
/// spin_block_coupling_flops(L), half of one LU of order 2L.
void spin_block_solve(const SplitMatrix& k, const SplitMatrix& b,
                      const SplitMatrix& c,
                      const std::array<Complex, 4>* site_blocks,
                      SpinBlockWorkspace& ws, std::array<Complex, 4>& s);

/// The flops spin_block_solve books at block order l besides its two LUs
/// and F^-1: the Schur update of S2, w = F^-1 b and F^-T c, the two-column
/// solve, and the closing scalings and products.
std::uint64_t spin_block_coupling_flops(std::size_t l);

}  // namespace wlsms::linalg
