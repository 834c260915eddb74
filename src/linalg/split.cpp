#include "linalg/split.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "linalg/lu.hpp"
#include "linalg/simd.hpp"
#include "perf/flops.hpp"

namespace wlsms::linalg {

namespace {

using simd::kVec;
using simd::Vd;

constexpr std::size_t kNb = kLuBlockSize;
static_assert(kNb % kVec == 0, "a block must be a whole number of vectors");
constexpr std::size_t kBlockVectors = kNb / kVec;

// Trailing-update register tile: kTileVectors vectors of rows by kTileCols
// columns of C, one real and one imaginary accumulator each. Under AVX-512
// the 16 accumulators fill half of the 32 vector registers; the
// 16-register ISAs take half the columns.
constexpr std::size_t kTileVectors = 2;
constexpr std::size_t kTileRows = kTileVectors * kVec;
constexpr std::size_t kTileCols = kVec == 8 ? 4 : 2;
static_assert(kNb % kTileRows == 0, "row tiles must cover a block exactly");

// Row-panel columns substituted together, all held in registers.
constexpr std::size_t kSolveCols = kVec == 8 ? 4 : 1;

std::size_t padded_rows(std::size_t rows) {
  return (rows + kNb - 1) / kNb * kNb;
}

// A split matrix seen from a (row, column) offset: column c's real parts
// start at re(c), its imaginary parts ld doubles later. Two words, so it
// travels in registers: a three-word view went through the stack on every
// call, and its mismatched store and load widths stalled store forwarding.
template <class T>
struct View {
  T* p;
  std::size_t ld;
  T* re(std::size_t c) const { return p + SplitMatrix::stride_for(ld) * c; }
  T* im(std::size_t c) const { return re(c) + ld; }
  View at(std::size_t r, std::size_t c) const { return {re(c) + r, ld}; }
  operator View<const double>() const { return {p, ld}; }
};
using MutView = View<double>;
using ConstView = View<const double>;

MutView view(SplitMatrix& m) { return {m.re(0), m.ld()}; }
ConstView view(const SplitMatrix& m) { return {m.re(0), m.ld()}; }

// Calls f.operator()<K>() for K = 0 .. N-1, so lane indices inside are
// compile-time constants. The step bodies must be inlined (the callers mark
// their step lambdas always_inline) so the vectors they update stay in
// registers: out of line, every step reloads and spills them.
template <std::size_t N, class F>
[[gnu::always_inline]] inline void unroll(F&& f) {
  [&]<std::size_t... K>(std::index_sequence<K...>)
      __attribute__((always_inline)) {
    (f.template operator()<K>(), ...);
  }(std::make_index_sequence<N>{});
}

// ---------------------------------------------------------------------------
// Trailing update. C (kTileRows x N) -= A (kTileRows x depth) *
// B (depth x N): C is loaded from its planes once, A's columns and B's
// entries are read where they lie, and C is stored back once. Each complex
// multiply-add is four real FMAs on two accumulators.
template <std::size_t N>
inline void tile(MutView c, ConstView a, ConstView b, std::size_t depth) {
  Vd cr[N][kTileVectors];
  Vd ci[N][kTileVectors];
  for (std::size_t j = 0; j < N; ++j)
    for (std::size_t v = 0; v < kTileVectors; ++v) {
      cr[j][v] = simd::load(c.re(j) + v * kVec);
      ci[j][v] = simd::load(c.im(j) + v * kVec);
    }
  for (std::size_t k = 0; k < depth; ++k) {
    Vd ar[kTileVectors];
    Vd ai[kTileVectors];
    for (std::size_t v = 0; v < kTileVectors; ++v) {
      ar[v] = simd::load(a.re(k) + v * kVec);
      ai[v] = simd::load(a.im(k) + v * kVec);
    }
    for (std::size_t j = 0; j < N; ++j) {
      const Vd br = simd::broadcast(b.re(j)[k]);
      const Vd bi = simd::broadcast(b.im(j)[k]);
      for (std::size_t v = 0; v < kTileVectors; ++v) {
        cr[j][v] = cr[j][v] - ar[v] * br;
        cr[j][v] = cr[j][v] + ai[v] * bi;
        ci[j][v] = ci[j][v] - ar[v] * bi;
        ci[j][v] = ci[j][v] - ai[v] * br;
      }
    }
  }
  for (std::size_t j = 0; j < N; ++j)
    for (std::size_t v = 0; v < kTileVectors; ++v) {
      simd::store(c.re(j) + v * kVec, cr[j][v]);
      simd::store(c.im(j) + v * kVec, ci[j][v]);
    }
}

template <std::size_t N>
void tile_columns(MutView c, ConstView a, ConstView b, std::size_t m,
                  std::size_t depth) {
  for (std::size_t i = 0; i < m; i += kTileRows)
    tile<N>(c.at(i, 0), a.at(i, 0), b, depth);
}

// C (m x n) -= A (m x depth) * B (depth x n), m a whole number of tiles.
void subtract_product(MutView c, ConstView a, ConstView b, std::size_t m,
                      std::size_t n, std::size_t depth) {
  std::size_t j = 0;
  for (; j + kTileCols <= n; j += kTileCols)
    tile_columns<kTileCols>(c.at(0, j), a, b.at(0, j), m, depth);
  switch (n - j) {
    case 0:
      break;
    case 1:
      tile_columns<1>(c.at(0, j), a, b.at(0, j), m, depth);
      break;
    case 2:
      tile_columns<2>(c.at(0, j), a, b.at(0, j), m, depth);
      break;
    default:
      tile_columns<3>(c.at(0, j), a, b.at(0, j), m, depth);
      break;
  }
}

// ---------------------------------------------------------------------------
// Substitution on one kNb-row block.

// X (kNb x G) := L^-1 X with L the unit-lower diagonal block at l, of width
// w <= kNb (columns past w act as identity columns). Step K broadcasts the
// solved x_K from its register lane and subtracts L(:, K) x_K from the
// rows below, reading L(:, K) where it lies with the rows <= K masked off.
template <std::size_t G>
void lower_solve(ConstView l, std::size_t w, MutView x) {
  Vd xr[G][kBlockVectors];
  Vd xi[G][kBlockVectors];
  for (std::size_t g = 0; g < G; ++g)
    for (std::size_t v = 0; v < kBlockVectors; ++v) {
      xr[g][v] = simd::load(x.re(g) + v * kVec);
      xi[g][v] = simd::load(x.im(g) + v * kVec);
    }
  unroll<kNb - 1>([&]<std::size_t K>() __attribute__((always_inline)) {
    if (K >= w) return;
    constexpr std::size_t kv = K / kVec;
    constexpr std::size_t kRows = kBlockVectors - kv;  // vectors below
    Vd lr[kRows];
    Vd li[kRows];
    for (std::size_t v = 0; v < kRows; ++v) {
      lr[v] = simd::load(l.re(K) + (kv + v) * kVec);
      li[v] = simd::load(l.im(K) + (kv + v) * kVec);
    }
    lr[0] = simd::zero_through<K % kVec>(lr[0]);
    li[0] = simd::zero_through<K % kVec>(li[0]);
    for (std::size_t g = 0; g < G; ++g) {
      const Vd sr = simd::splat<K % kVec>(xr[g][kv]);
      const Vd si = simd::splat<K % kVec>(xi[g][kv]);
      for (std::size_t v = 0; v < kRows; ++v) {
        Vd& yr = xr[g][kv + v];
        Vd& yi = xi[g][kv + v];
        yr = yr - lr[v] * sr;
        yr = yr + li[v] * si;
        yi = yi - lr[v] * si;
        yi = yi - li[v] * sr;
      }
    }
  });
  for (std::size_t g = 0; g < G; ++g)
    for (std::size_t v = 0; v < kBlockVectors; ++v) {
      simd::store(x.re(g) + v * kVec, xr[g][v]);
      simd::store(x.im(g) + v * kVec, xi[g][v]);
    }
}

// X (kNb x ncols) := L^-1 X, kSolveCols columns at a time.
void lower_solve_columns(ConstView l, std::size_t w, MutView x,
                         std::size_t ncols) {
  std::size_t c = 0;
  for (; c + kSolveCols <= ncols; c += kSolveCols)
    lower_solve<kSolveCols>(l, w, x.at(0, c));
  for (; c < ncols; ++c) lower_solve<1>(l, w, x.at(0, c));
}

// The upper-triangular diagonal block at u, of width w <= kNb, prepared
// for substitution: column K above the diagonal times 1 / U(K, K), zero on
// and below it, and the reciprocals (1 past w, so pad rows stay as they
// are). Scaling the columns once per block takes the reciprocal multiply
// off the substitution's dependency chain: a step then only broadcasts
// x_K and subtracts, and x is scaled after the last step. This O(kNb^2)
// setup is not booked, as the reciprocals never were.
struct UpperBlock {
  alignas(64) double re[kNb][kNb];  // [column][row]
  alignas(64) double im[kNb][kNb];
  alignas(64) double inv_re[kNb];
  alignas(64) double inv_im[kNb];
};

void prepare_upper(ConstView u, std::size_t w, UpperBlock& b) {
  for (std::size_t k = 0; k < kNb; ++k) {
    b.inv_re[k] = 1.0;
    b.inv_im[k] = 0.0;
    for (std::size_t r = 0; r < kNb; ++r) b.re[k][r] = b.im[k][r] = 0.0;
  }
  for (std::size_t k = 0; k < w; ++k) {
    const double ur = u.re(k)[k];
    const double ui = u.im(k)[k];
    const double inv_d = 1.0 / (ur * ur + ui * ui);
    const double dr = ur * inv_d;
    const double di = -ui * inv_d;
    b.inv_re[k] = dr;
    b.inv_im[k] = di;
    for (std::size_t r = 0; r < k; ++r) {
      const double xr = u.re(k)[r];
      const double xi = u.im(k)[r];
      b.re[k][r] = xr * dr - xi * di;
      b.im[k][r] = xr * di + xi * dr;
    }
  }
}

// X (kNb x G) := U^-1 X with U the prepared upper block, of width w,
// bottom row first.
template <std::size_t G>
void upper_solve(const UpperBlock& u, std::size_t w, MutView x) {
  Vd xr[G][kBlockVectors];
  Vd xi[G][kBlockVectors];
  for (std::size_t g = 0; g < G; ++g)
    for (std::size_t v = 0; v < kBlockVectors; ++v) {
      xr[g][v] = simd::load(x.re(g) + v * kVec);
      xi[g][v] = simd::load(x.im(g) + v * kVec);
    }
  unroll<kNb>([&]<std::size_t S>() __attribute__((always_inline)) {
    constexpr std::size_t K = kNb - 1 - S;
    if constexpr (K > 0) {  // row 0 has nothing above it
      if (K >= w) return;
      constexpr std::size_t kv = (K - 1) / kVec;  // last vector above row K
      Vd ur[kv + 1];
      Vd ui[kv + 1];
      for (std::size_t v = 0; v <= kv; ++v) {
        ur[v] = simd::load(u.re[K] + v * kVec);
        ui[v] = simd::load(u.im[K] + v * kVec);
      }
      for (std::size_t g = 0; g < G; ++g) {
        const Vd sr = simd::splat<K % kVec>(xr[g][K / kVec]);
        const Vd si = simd::splat<K % kVec>(xi[g][K / kVec]);
        for (std::size_t v = 0; v <= kv; ++v) {
          xr[g][v] = xr[g][v] - ur[v] * sr;
          xr[g][v] = xr[g][v] + ui[v] * si;
          xi[g][v] = xi[g][v] - ur[v] * si;
          xi[g][v] = xi[g][v] - ui[v] * sr;
        }
      }
    }
  });
  for (std::size_t v = 0; v < kBlockVectors; ++v) {
    const Vd dr = simd::load(u.inv_re + v * kVec);
    const Vd di = simd::load(u.inv_im + v * kVec);
    for (std::size_t g = 0; g < G; ++g) {
      simd::store(x.re(g) + v * kVec, xr[g][v] * dr - xi[g][v] * di);
      simd::store(x.im(g) + v * kVec, xr[g][v] * di + xi[g][v] * dr);
    }
  }
}

// X (kNb x ncols) := U^-1 X, kSolveCols columns at a time.
void upper_solve_columns(ConstView u, std::size_t w, MutView x,
                         std::size_t ncols) {
  UpperBlock block;
  prepare_upper(u, w, block);
  std::size_t c = 0;
  for (; c + kSolveCols <= ncols; c += kSolveCols)
    upper_solve<kSolveCols>(block, w, x.at(0, c));
  for (; c < ncols; ++c) upper_solve<1>(block, w, x.at(0, c));
}

// ---------------------------------------------------------------------------
// Panel.

Vd cabs1(const double* re, const double* im, std::size_t r) {
  return simd::abs(simd::load(re + r)) + simd::abs(simd::load(im + r));
}

// Per-lane maximum.
Vd vmax(Vd a, Vd b) { return a > b ? a : b; }

// The first row in [j, ld) of a column attaining the largest CABS1
// magnitude |re| + |im| (LAPACK's ZGETF2 pivot), i.e. the row a sequential
// scan picks, and that magnitude. The maximum is a vector reduction; the
// diagonal, which holds it whenever the factorization does not pivot, is
// checked first, and only otherwise is the column searched for the first
// row attaining it. Rows past the order are zero pads: they attain the
// maximum only when every entry is zero, which the caller rejects as
// singular.
std::size_t find_pivot(const double* re, const double* im, std::size_t j,
                       std::size_t ld, double& magnitude) {
  const std::size_t r0 = j / kVec * kVec;
  const auto from_j =
      simd::iota(r0) < simd::broadcast(static_cast<double>(j));
  Vd m0 = from_j ? simd::broadcast(-1.0) : cabs1(re, im, r0);
  Vd m1 = m0;
  std::size_t r = r0 + kVec;
  for (; r + kVec < ld; r += 2 * kVec) {
    m0 = vmax(m0, cabs1(re, im, r));
    m1 = vmax(m1, cabs1(re, im, r + kVec));
  }
  if (r < ld) m0 = vmax(m0, cabs1(re, im, r));
  m0 = vmax(m0, m1);
  double top = simd::lane(m0, 0);
  for (std::size_t i = 1; i < kVec; ++i) top = std::max(top, simd::lane(m0, i));
  magnitude = top;
  for (r = j; r < ld; ++r)
    if (std::abs(re[r]) + std::abs(im[r]) == top) return r;
  return j;  // only a NaN maximum gets here
}

// Pivots column j: records the pivot row p and swaps rows j and p across
// all n columns (as the unblocked reference does, so the factors are laid
// out exactly as it leaves them). Returns -1 for a swap, +1 otherwise.
int pivot_column(MutView a, std::size_t n, std::size_t* pivots,
                 std::size_t j) {
  double magnitude = 0.0;
  const std::size_t p = find_pivot(a.re(j), a.im(j), j, a.ld, magnitude);
  if (magnitude == 0.0) throw SingularMatrixError(j);
  pivots[j] = p;
  if (p == j) return 1;
  for (std::size_t c = 0; c < n; ++c) {
    std::swap(a.re(c)[j], a.re(c)[p]);
    std::swap(a.im(c)[j], a.im(c)[p]);
  }
  return -1;
}

// Column j below the pivot times 1 / pivot: the multipliers L(:, j). The
// rows below j are swept on whole vectors from r0; the first vector also
// holds rows <= j (U entries and the pivot), which stay untouched, here and
// in rank1_column.
void scale_column(MutView a, std::size_t j) {
  const std::size_t r0 = (j + 1) / kVec * kVec;
  if (r0 == a.ld) return;  // j is the last row
  double* lr = a.re(j);
  double* li = a.im(j);
  const double inv_d = 1.0 / (lr[j] * lr[j] + li[j] * li[j]);
  const Vd ir = simd::broadcast(lr[j] * inv_d);
  const Vd ii = simd::broadcast(-li[j] * inv_d);
  const auto below = simd::iota(r0) > simd::broadcast(static_cast<double>(j));
  for (std::size_t r = r0; r < a.ld; r += kVec) {
    const Vd xr = simd::load(lr + r);
    const Vd xi = simd::load(li + r);
    Vd yr = xr * ir - xi * ii;
    Vd yi = xr * ii + xi * ir;
    if (r == r0) {
      yr = below ? yr : xr;
      yi = below ? yi : xi;
    }
    simd::store(lr + r, yr);
    simd::store(li + r, yi);
  }
}

// Column c below row j -= L(:, j) U(j, c). There is no early exit for
// U(j, c) == 0: the zone matrices are half structural zeros before fill-in,
// and a data-dependent skip mispredicts more than the update costs.
void rank1_column(MutView a, std::size_t j, std::size_t c) {
  const std::size_t r0 = (j + 1) / kVec * kVec;
  if (r0 == a.ld) return;
  double* cr = a.re(c);
  double* ci = a.im(c);
  const double* lr = a.re(j);
  const double* li = a.im(j);
  const Vd br = simd::broadcast(cr[j]);
  const Vd bi = simd::broadcast(ci[j]);
  const auto below = simd::iota(r0) > simd::broadcast(static_cast<double>(j));
  for (std::size_t r = r0; r < a.ld; r += kVec) {
    const Vd xr = simd::load(lr + r);
    const Vd xi = simd::load(li + r);
    const Vd old_r = simd::load(cr + r);
    const Vd old_i = simd::load(ci + r);
    Vd yr = old_r - xr * br;
    yr = yr + xi * bi;
    Vd yi = old_i - xr * bi;
    yi = yi - xi * br;
    if (r == r0) {
      yr = below ? yr : old_r;
      yi = below ? yi : old_i;
    }
    simd::store(cr + r, yr);
    simd::store(ci + r, yi);
  }
}

// Unblocked partial-pivoting LU of columns [k0, k0 + w), rows [k0, n).
// Look-ahead order: step j updates column j + 1 first and pivots it before
// updating the remaining columns, so the next pivot search overlaps this
// step's other updates instead of waiting for them (a row swap commutes
// with them: it permutes whole rows, the multipliers included). Returns
// the swap parity.
int factor_columns(MutView a, std::size_t n, std::size_t* pivots,
                   std::size_t k0, std::size_t w) {
  int parity = pivot_column(a, n, pivots, k0);
  for (std::size_t j = k0; j < k0 + w; ++j) {
    scale_column(a, j);
    if (j + 1 == k0 + w) break;
    rank1_column(a, j, j + 1);
    parity *= pivot_column(a, n, pivots, j + 1);
    for (std::size_t c = j + 2; c < k0 + w; ++c) rank1_column(a, j, c);
  }
  return parity;
}

// The panel step: columns [k0, k0 + w) and every row below k0. A panel
// wider than half a block is factored in two halves: the left half by
// rank-1 steps, then the right half is brought up to date in one pass (a
// substitution on the panel's first kNb rows, whose lower rows it updates
// too, and one trailing-tile product below them), then factored. That
// halves the rank-1 sweeps over the panel's columns. The panel's flops are
// booked as one kPanel step, exactly zgetrf_panel(n - k0, w).
int factor_panel(MutView a, std::size_t n, std::size_t* pivots,
                 std::size_t k0, std::size_t w) {
  constexpr std::size_t h = kNb / 2;
  int parity = 1;
  if (w <= h) {
    parity = factor_columns(a, n, pivots, k0, w);
  } else {
    parity = factor_columns(a, n, pivots, k0, h);
    lower_solve_columns(a.at(k0, k0), h, a.at(k0, k0 + h), w - h);
    if (k0 + kNb < a.ld)
      subtract_product(a.at(k0 + kNb, k0 + h), a.at(k0 + kNb, k0),
                       a.at(k0, k0 + h), a.ld - k0 - kNb, w - h, h);
    parity *= factor_columns(a, n, pivots, k0 + h, w - h);
  }
  perf::add_flops(perf::Kernel::kPanel, perf::cost::zgetrf_panel(n - k0, w));
  return parity;
}

double lane_sum(Vd v) {
  double s = 0.0;
  for (std::size_t i = 0; i < kVec; ++i) s += simd::lane(v, i);
  return s;
}

// X (n x 2) := A^-1 X from split_getrf's factors of the order-n A: the row
// swaps applied to X, then L y = P x and U x = y, each one kNb-row block at
// a time: the block's triangle by the substitution kernel, then its product
// with the rows below (forward) or above (backward) by the trailing tile.
void solve_two_columns(ConstView lu, std::size_t n, std::size_t ld,
                       const std::size_t* pivots, MutView x) {
  for (std::size_t k = 0; k < n; ++k)
    if (pivots[k] != k)
      for (std::size_t c = 0; c < 2; ++c) {
        std::swap(x.re(c)[k], x.re(c)[pivots[k]]);
        std::swap(x.im(c)[k], x.im(c)[pivots[k]]);
      }
  for (std::size_t k0 = 0; k0 < n; k0 += kNb) {
    const std::size_t w = std::min(kNb, n - k0);
    lower_solve<2>(lu.at(k0, k0), w, x.at(k0, 0));
    if (k0 + kNb < ld)
      subtract_product(x.at(k0 + kNb, 0), lu.at(k0 + kNb, k0), x.at(k0, 0),
                       ld - k0 - kNb, 2, w);
  }
  for (std::size_t k0 = (n - 1) / kNb * kNb;; k0 -= kNb) {
    const std::size_t w = std::min(kNb, n - k0);
    UpperBlock block;
    prepare_upper(lu.at(k0, k0), w, block);
    upper_solve<2>(block, w, x.at(k0, 0));
    if (k0 == 0) break;
    subtract_product(x.at(0, 0), lu.at(0, k0), x.at(k0, 0), k0, 2, w);
  }
  perf::add_flops(perf::Kernel::kTrsm, perf::cost::zgetrs(n, 2));
}

// inv := A^-1 from split_getrf's factors of A, as ZGETRI forms it: L^-1 by
// forward substitution on the identity, then U^-1 L^-1 by backward
// substitution, then A^-1 = U^-1 L^-1 P^T by column swaps in reverse pivot
// order. Column c of L^-1 is zero above row c, so the forward pass over
// block k0 touches only columns [0, k0 + w); the flops do not depend on the
// pivots and total perf::cost::zgetri(n).
void invert_factored(const SplitMatrix& a,
                     const std::vector<std::size_t>& pivots,
                     SplitMatrix& inv) {
  const std::size_t n = a.rows();
  const std::size_t ld = a.ld();
  inv.zero(n, n);
  for (std::size_t c = 0; c < n; ++c) inv.re(c)[c] = 1.0;
  const ConstView lu = view(a);
  const MutView x = view(inv);
  for (std::size_t k0 = 0; k0 < n; k0 += kNb) {
    const std::size_t w = std::min(kNb, n - k0);
    const std::size_t rem = n - k0 - w;
    lower_solve_columns(lu.at(k0, k0), w, x.at(k0, 0), k0 + w);
    perf::add_flops(perf::Kernel::kTrsm,
                    perf::cost::ztrsm_unit_lower(w, k0) +
                        perf::cost::ztrtri_unit_lower(w));
    if (rem == 0) break;
    subtract_product(x.at(k0 + kNb, 0), lu.at(k0 + kNb, k0), x.at(k0, 0),
                     ld - k0 - kNb, k0 + w, w);
    // The block's own column k0 + i reaches the rows below with depth
    // w - i; those depths sum to w(w + 1)/2.
    perf::add_flops(perf::Kernel::kZgemm,
                    perf::cost::zgemm(rem, k0, w) +
                        perf::cost::zgemm(rem, 1, w * (w + 1) / 2));
  }
  for (std::size_t k0 = (n - 1) / kNb * kNb;; k0 -= kNb) {
    const std::size_t w = std::min(kNb, n - k0);
    upper_solve_columns(lu.at(k0, k0), w, x.at(k0, 0), n);
    perf::add_flops(perf::Kernel::kTrsm, perf::cost::ztrsm_upper(w, n));
    if (k0 == 0) break;
    subtract_product(x.at(0, 0), lu.at(0, k0), x.at(k0, 0), k0, n, w);
    perf::add_flops(perf::Kernel::kZgemm, perf::cost::zgemm(k0, n, w));
  }
  // A column's planes are 2 ld contiguous doubles.
  for (std::size_t k = n; k-- > 0;)
    if (pivots[k] != k)
      std::swap_ranges(inv.re(k), inv.re(k) + 2 * ld, inv.re(pivots[k]));
}

// spin_block_solve's flops besides zgetrs and the LUs and the inverse: per
// entry of S2 one complex multiply and one complex multiply-subtract; the
// products F^-1 b and F^-T c; the scalings T_ud o (F^-T c) and T_du o w;
// and the five closing dot products.
std::uint64_t schur_update_flops(std::uint64_t n) {
  return 14 * n * n + perf::cost::zgemm(n, 2, n) + 12 * n +
         perf::cost::zgemm(2, 2, n) + perf::cost::zgemm(1, 1, n);
}

}  // namespace

SplitMatrix::SplitMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      ld_(padded_rows(rows)),
      data_(stride() * cols, 0.0) {}

SplitMatrix::SplitMatrix(const ZMatrix& m) : SplitMatrix(m.rows(), m.cols()) {
  for (std::size_t c = 0; c < cols_; ++c)
    for (std::size_t r = 0; r < rows_; ++r) set(r, c, m(r, c));
}

void SplitMatrix::zero(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  ld_ = padded_rows(rows);
  data_.assign(stride() * cols, 0.0);
}

void SplitMatrix::copy_to(ZMatrix& m) const {
  if (m.rows() != rows_ || m.cols() != cols_) m = ZMatrix(rows_, cols_);
  for (std::size_t c = 0; c < cols_; ++c)
    for (std::size_t r = 0; r < rows_; ++r) m(r, c) = (*this)(r, c);
}

int split_getrf(SplitMatrix& a, std::vector<std::size_t>& pivots) {
  WLSMS_EXPECTS(a.rows() == a.cols());
  const std::size_t n = a.rows();
  pivots.resize(n);
  const MutView m = view(a);
  int parity = 1;
  for (std::size_t k0 = 0; k0 < n; k0 += kNb) {
    const std::size_t w = std::min(kNb, n - k0);
    parity *= factor_panel(m, n, pivots.data(), k0, w);
    const std::size_t rem = n - k0 - w;
    if (rem == 0) break;
    // Row panel: U12 = L11^-1 A12.
    const MutView a12 = m.at(k0, k0 + w);
    lower_solve_columns(m.at(k0, k0), w, a12, rem);
    perf::add_flops(perf::Kernel::kTrsm, perf::cost::ztrsm_unit_lower(w, rem));
    // Trailing update: A22 -= L21 U12, pad rows included (they stay zero).
    subtract_product(m.at(k0 + w, k0 + w), m.at(k0 + w, k0), a12,
                     a.ld() - k0 - w, rem, w);
    perf::add_flops(perf::Kernel::kZgemm, perf::cost::zgemm(rem, rem, w));
  }
  return parity;
}

void spin_block_solve(const SplitMatrix& k, const SplitMatrix& b,
                      const SplitMatrix& c,
                      const std::array<Complex, 4>* site_blocks,
                      SpinBlockWorkspace& ws, std::array<Complex, 4>& s) {
  const std::size_t n = k.rows();
  WLSMS_EXPECTS(k.cols() == n);
  WLSMS_EXPECTS(b.rows() == n && b.cols() == 1);
  WLSMS_EXPECTS(c.rows() == n && c.cols() == 1);
  if (n == 0) return;
  const std::size_t ld = k.ld();

  // F = K + T_uu (K's diagonal is zero), factored, then inverted.
  ws.f = k;
  for (std::size_t j = 0; j < n; ++j) ws.f.set(j, j, site_blocks[j][0]);
  split_getrf(ws.f, ws.f_pivots);
  invert_factored(ws.f, ws.f_pivots, ws.f_inverse);

  // One pass over F^-1's columns writes S2 = K + T_dd - T_du F^-1 T_ud
  // over F's spent factors and accumulates w = F^-1 b and F^-T c.
  ws.vectors.zero(n, 3);
  double* const du_re = ws.vectors.re(0);
  double* const du_im = ws.vectors.im(0);
  double* const w_re = ws.vectors.re(1);
  double* const w_im = ws.vectors.im(1);
  for (std::size_t j = 0; j < n; ++j) {
    du_re[j] = site_blocks[j][2].real();
    du_im[j] = site_blocks[j][2].imag();
  }
  const ConstView inv = view(ws.f_inverse);
  const ConstView hop = view(k);
  const MutView s2 = view(ws.f);
  for (std::size_t col = 0; col < n; ++col) {
    const Complex ud = site_blocks[col][1];
    const Vd ur = simd::broadcast(ud.real());
    const Vd ui = simd::broadcast(ud.imag());
    const Vd br = simd::broadcast(b.re(0)[col]);
    const Vd bi = simd::broadcast(b.im(0)[col]);
    Vd acc_r = simd::broadcast(0.0);
    Vd acc_i = acc_r;
    for (std::size_t r = 0; r < ld; r += kVec) {
      const Vd xr = simd::load(inv.re(col) + r);
      const Vd xi = simd::load(inv.im(col) + r);
      const Vd tr = xr * ur - xi * ui;
      const Vd ti = xr * ui + xi * ur;
      const Vd dr = simd::load(du_re + r);
      const Vd di = simd::load(du_im + r);
      Vd yr = simd::load(hop.re(col) + r) - dr * tr;
      yr = yr + di * ti;
      Vd yi = simd::load(hop.im(col) + r) - dr * ti;
      yi = yi - di * tr;
      simd::store(s2.re(col) + r, yr);
      simd::store(s2.im(col) + r, yi);
      Vd wr = simd::load(w_re + r) + xr * br;
      wr = wr - xi * bi;
      Vd wi = simd::load(w_im + r) + xr * bi;
      wi = wi + xi * br;
      simd::store(w_re + r, wr);
      simd::store(w_im + r, wi);
      const Vd cr = simd::load(c.re(0) + r);
      const Vd ci = simd::load(c.im(0) + r);
      acc_r = acc_r + cr * xr;
      acc_r = acc_r - ci * xi;
      acc_i = acc_i + cr * xi;
      acc_i = acc_i + ci * xr;
    }
    // K's diagonal is zero, so adding T_dd now equals assembling it first.
    s2.re(col)[col] += site_blocks[col][3].real();
    s2.im(col)[col] += site_blocks[col][3].imag();
    ws.vectors.set(col, 2, ud * Complex{lane_sum(acc_r), lane_sum(acc_i)});
  }
  split_getrf(ws.f, ws.s2_pivots);

  // S2 [x0 x1] = [T_du o w, b]: then x0 = -x_dn(0) and x1 = x_dn(1), the
  // down-spin halves of A^-1 B, and
  //   C A^-1 B = [ c.w + y.x0   -y.x1 ]    with y = T_ud o F^-T c.
  //              [ -c.x0         c.x1 ]
  ws.x.zero(n, 2);
  const MutView x = view(ws.x);
  for (std::size_t r = 0; r < ld; r += kVec) {
    const Vd dr = simd::load(du_re + r);
    const Vd di = simd::load(du_im + r);
    const Vd wr = simd::load(w_re + r);
    const Vd wi = simd::load(w_im + r);
    simd::store(x.re(0) + r, dr * wr - di * wi);
    simd::store(x.im(0) + r, dr * wi + di * wr);
    simd::store(x.re(1) + r, simd::load(b.re(0) + r));
    simd::store(x.im(1) + r, simd::load(b.im(0) + r));
  }
  solve_two_columns(view(ws.f), n, ld, ws.s2_pivots.data(), x);

  // The closing dot products (pad rows are zero): {c.w, y.x0, c.x0, y.x1,
  // c.x1}.
  const double* const y_re = ws.vectors.re(2);
  const double* const y_im = ws.vectors.im(2);
  Vd acc_r[5] = {};
  Vd acc_i[5] = {};
  const auto dot = [&](std::size_t slot, Vd pr, Vd pi, Vd qr, Vd qi)
      __attribute__((always_inline)) {
        acc_r[slot] = acc_r[slot] + pr * qr;
        acc_r[slot] = acc_r[slot] - pi * qi;
        acc_i[slot] = acc_i[slot] + pr * qi;
        acc_i[slot] = acc_i[slot] + pi * qr;
      };
  for (std::size_t r = 0; r < ld; r += kVec) {
    const Vd cr = simd::load(c.re(0) + r);
    const Vd ci = simd::load(c.im(0) + r);
    const Vd yr = simd::load(y_re + r);
    const Vd yi = simd::load(y_im + r);
    const Vd x0r = simd::load(x.re(0) + r);
    const Vd x0i = simd::load(x.im(0) + r);
    const Vd x1r = simd::load(x.re(1) + r);
    const Vd x1i = simd::load(x.im(1) + r);
    dot(0, cr, ci, simd::load(w_re + r), simd::load(w_im + r));
    dot(1, yr, yi, x0r, x0i);
    dot(2, cr, ci, x0r, x0i);
    dot(3, yr, yi, x1r, x1i);
    dot(4, cr, ci, x1r, x1i);
  }
  Complex d[5];
  for (std::size_t slot = 0; slot < 5; ++slot)
    d[slot] = {lane_sum(acc_r[slot]), lane_sum(acc_i[slot])};
  s[0] -= d[0] + d[1];
  s[1] += d[2];
  s[2] += d[3];
  s[3] -= d[4];
  perf::add_flops(perf::Kernel::kZgemm, schur_update_flops(n));
}

std::uint64_t spin_block_coupling_flops(std::size_t l) {
  return schur_update_flops(l) + perf::cost::zgetrs(l, 2);
}

}  // namespace wlsms::linalg
