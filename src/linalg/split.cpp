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
// B (depth x N): C is loaded from its planes once (or taken as zero when
// kLoadC is false, so C := -A B), A's columns and B's entries are read
// where they lie, and C is stored back once. Each complex multiply-add is
// four real FMAs on two accumulators.
template <std::size_t N, bool kLoadC = true>
inline void tile(MutView c, ConstView a, ConstView b, std::size_t depth) {
  Vd cr[N][kTileVectors];
  Vd ci[N][kTileVectors];
  for (std::size_t j = 0; j < N; ++j)
    for (std::size_t v = 0; v < kTileVectors; ++v) {
      cr[j][v] = kLoadC ? simd::load(c.re(j) + v * kVec) : Vd{};
      ci[j][v] = kLoadC ? simd::load(c.im(j) + v * kVec) : Vd{};
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

template <std::size_t N, bool kLoadC = true>
void tile_columns(MutView c, ConstView a, ConstView b, std::size_t m,
                  std::size_t depth) {
  for (std::size_t i = 0; i < m; i += kTileRows)
    tile<N, kLoadC>(c.at(i, 0), a.at(i, 0), b, depth);
}

// C (m x n) -= A (m x depth) * B (depth x n), m a whole number of tiles;
// C := -A B when kLoadC is false.
template <bool kLoadC = true>
void subtract_product(MutView c, ConstView a, ConstView b, std::size_t m,
                      std::size_t n, std::size_t depth) {
  std::size_t j = 0;
  for (; j + kTileCols <= n; j += kTileCols)
    tile_columns<kTileCols, kLoadC>(c.at(0, j), a, b.at(0, j), m, depth);
  switch (n - j) {
    case 0:
      break;
    case 1:
      tile_columns<1, kLoadC>(c.at(0, j), a, b.at(0, j), m, depth);
      break;
    case 2:
      tile_columns<2, kLoadC>(c.at(0, j), a, b.at(0, j), m, depth);
      break;
    default:
      tile_columns<3, kLoadC>(c.at(0, j), a, b.at(0, j), m, depth);
      break;
  }
}

// dst(r, c) = src(c, r) for r < rows and c < cols (the two do not
// overlap), in kVec x kVec blocks through registers; with `scale`, each
// column c of dst is also multiplied by scale's entry c. src starts at a
// row that is a multiple of kVec, so every block it reads lies in its
// planes; dst rows from `rows` up to the next multiple of kVec get zeros,
// which every caller has as pad or scratch rows.
void transpose(ConstView src, MutView dst, std::size_t rows,
               std::size_t cols, const ConstView* scale = nullptr) {
  for (std::size_t c = 0; c < cols; c += kVec) {
    const std::size_t width = std::min(kVec, cols - c);
    for (std::size_t r = 0; r < rows; r += kVec) {
      Vd vr[kVec];
      Vd vi[kVec];
      for (std::size_t q = 0; q < kVec; ++q) {
        vr[q] = r + q < rows ? simd::load(src.re(r + q) + c) : Vd{};
        vi[q] = r + q < rows ? simd::load(src.im(r + q) + c) : Vd{};
      }
      simd::transpose(vr);
      simd::transpose(vi);
      for (std::size_t q = 0; q < width; ++q) {
        if (scale != nullptr) {
          const Vd sr = simd::broadcast(scale->re(0)[c + q]);
          const Vd si = simd::broadcast(scale->im(0)[c + q]);
          const Vd xr = vr[q];
          vr[q] = xr * sr - vi[q] * si;
          vi[q] = xr * si + vi[q] * sr;
        }
        simd::store(dst.re(c + q) + r, vr[q]);
        simd::store(dst.im(c + q) + r, vi[q]);
      }
    }
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

// ---------------------------------------------------------------------------
// Panel.

Vd cabs1(const double* re, const double* im, std::size_t r) {
  return simd::abs(simd::load(re + r)) + simd::abs(simd::load(im + r));
}

// Per-lane maximum.
Vd vmax(Vd a, Vd b) { return a > b ? a : b; }

// The first row in [j, ld) attaining the CABS1 magnitude `top`, i.e. the
// row a sequential scan for the maximum picks.
std::size_t first_row_attaining(const double* re, const double* im,
                                std::size_t j, std::size_t ld, double top) {
  for (std::size_t r = j; r < ld; ++r)
    if (std::abs(re[r]) + std::abs(im[r]) == top) return r;
  return j;  // only a NaN maximum gets here
}

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
  return first_row_attaining(re, im, j, ld, top);
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

// Rows below j of the column (yr, yi) := the same rows of (xr, xi) times
// the scalar v, swept on whole vectors from the one holding row j + 1; that
// first vector's rows <= j take x's values (x may be y itself).
void scale_below(const double* xr, const double* xi, double* yr, double* yi,
                 std::size_t j, std::size_t ld, Complex v) {
  const std::size_t r0 = (j + 1) / kVec * kVec;
  const Vd vr = simd::broadcast(v.real());
  const Vd vi = simd::broadcast(v.imag());
  const auto below = simd::iota(r0) > simd::broadcast(static_cast<double>(j));
  for (std::size_t r = r0; r < ld; r += kVec) {
    const Vd ar = simd::load(xr + r);
    const Vd ai = simd::load(xi + r);
    Vd br = ar * vr - ai * vi;
    Vd bi = ar * vi + ai * vr;
    if (r == r0) {
      br = below ? br : ar;
      bi = below ? bi : ai;
    }
    simd::store(yr + r, br);
    simd::store(yi + r, bi);
  }
}

// 1 / z.
Complex reciprocal(double re, double im) {
  const double inv_d = 1.0 / (re * re + im * im);
  return {re * inv_d, -im * inv_d};
}

// Column j below the pivot times 1 / pivot: the multipliers L(:, j). The
// first vector swept also holds rows <= j (U entries and the pivot), which
// stay untouched, here and in rank1_column.
void scale_column(MutView a, std::size_t j) {
  double* lr = a.re(j);
  double* li = a.im(j);
  scale_below(lr, li, lr, li, j, a.ld, reciprocal(lr[j], li[j]));
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

// ---------------------------------------------------------------------------
// The complex symmetric F: Bunch-Kaufman LDL^T, and F^-1 from its factors.

// Bunch-Kaufman's alpha = (1 + sqrt(17)) / 8, which bounds the element
// growth of a 1x1 and a 2x2 pivot equally.
constexpr double kBunchKaufmanAlpha = 0.6403882032022076;

double cabs1_at(ConstView m, std::size_t r, std::size_t c) {
  return std::abs(m.re(c)[r]) + std::abs(m.im(c)[r]);
}

// Swaps rows r and s of columns [0, count).
void swap_rows(MutView m, std::size_t r, std::size_t s, std::size_t count) {
  for (std::size_t q = 0; q < count; ++q) {
    std::swap(m.re(q)[r], m.re(q)[s]);
    std::swap(m.im(q)[r], m.im(q)[s]);
  }
}

// The column of F that the symmetric interchanges pivots[0, k) moved to
// position k: what a singular pivot there names.
std::size_t original_column(const std::vector<std::size_t>& pivots,
                            std::size_t k) {
  std::vector<std::size_t> order(pivots.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t s = 0; s < k; ++s) std::swap(order[s], order[pivots[s]]);
  return order[k];
}

// C -= A B on the lower triangle of C's columns [j0, n): each group of
// kTileCols columns from the tile row holding its first diagonal entry down
// to ld, so a group's first tile also writes a few entries above the
// diagonal, which are scratch. A's rows are C's rows, and B's column j
// belongs to C's column j.
void subtract_lower(MutView c, ConstView a, ConstView b, std::size_t j0,
                    std::size_t n, std::size_t ld, std::size_t depth) {
  for (std::size_t j = j0; j < n; j += kTileCols) {
    const std::size_t i0 = j / kTileRows * kTileRows;
    subtract_product(c.at(i0, j), a.at(i0, 0), b.at(0, j), ld - i0,
                     std::min(kTileCols, n - j), depth);
  }
}

// W(:, cw) := the column (src_re, src_im) minus the panel's first
// `factored` columns of L times row `r` of W (transposed), over rows
// [r0, ld), r0 a multiple of kVec: a column of A brought up to date.
// Returns the largest CABS1 magnitude of the result below row `below` (pad
// rows are zero). A matrix-vector product, one vector of rows at a time;
// the tile's chains would wait on FMA latency, so columns of L accumulate
// round-robin into four accumulators instead of one.
double update_panel_column(const double* src_re, const double* src_im,
                           ConstView a, MutView w, std::size_t k0,
                           std::size_t cw, std::size_t factored,
                           std::size_t r, std::size_t r0, std::size_t below) {
  constexpr std::size_t kChains = 4;
  double row_re[kNb + 1];
  double row_im[kNb + 1];
  for (std::size_t q = 0; q < factored; ++q) {
    row_re[q] = w.re(q)[r];
    row_im[q] = w.im(q)[r];
  }
  const ConstView l = a.at(0, k0);
  double* const cr = w.re(cw);
  double* const ci = w.im(cw);
  const Vd below_row = simd::broadcast(static_cast<double>(below));
  Vd top = simd::broadcast(0.0);
  for (std::size_t i = r0; i < a.ld; i += kVec) {
    Vd yr[kChains] = {};
    Vd yi[kChains] = {};
    const auto step = [&](std::size_t q, Vd& ar, Vd& ai)
        __attribute__((always_inline)) {
          const Vd sr = simd::broadcast(row_re[q]);
          const Vd si = simd::broadcast(row_im[q]);
          const Vd xr = simd::load(l.re(q) + i);
          const Vd xi = simd::load(l.im(q) + i);
          ar = ar - xr * sr;
          ar = ar + xi * si;
          ai = ai - xr * si;
          ai = ai - xi * sr;
        };
    std::size_t q = 0;
    for (; q + kChains <= factored; q += kChains)
      unroll<kChains>([&]<std::size_t K>() __attribute__((always_inline)) {
        step(q + K, yr[K], yi[K]);
      });
    unroll<kChains - 1>([&]<std::size_t K>() __attribute__((always_inline)) {
      if (q + K < factored) step(q + K, yr[K], yi[K]);
    });
    const Vd zr = simd::load(src_re + i) + ((yr[0] + yr[1]) + (yr[2] + yr[3]));
    const Vd zi = simd::load(src_im + i) + ((yi[0] + yi[1]) + (yi[2] + yi[3]));
    simd::store(cr + i, zr);
    simd::store(ci + i, zi);
    const Vd m = simd::abs(zr) + simd::abs(zi);
    top = vmax(top, simd::iota(i) > below_row ? m : Vd{});
  }
  double result = simd::lane(top, 0);
  for (std::size_t lane = 1; lane < kVec; ++lane)
    result = std::max(result, simd::lane(top, lane));
  return result;
}

// One Bunch-Kaufman panel of the LDL^T of the order-n `a` from column k0,
// with the structure of LAPACK's ZLASYF: it reads and writes only the lower
// triangle (the strict upper triangle is scratch) and factors kNb columns,
// or kNb + 1 when the last pivot is a 2x2 block. W(:, c) holds column
// k0 + c of L D; a column of A is brought up to date (depth c) only when
// the panel reaches it, or when it is the interchange candidate of the
// alpha-test (CABS1 magnitudes, first maximum, as ZLASYF). Interchanges
// are symmetric: the untouched column kk moves to kp in the lower
// triangle, and rows kk and kp swap in every earlier column of L, so the
// factors read P^T F P = L D L^T with one permutation P. A 2x2 block's L
// entry (k + 1, k) is zero. D^-1 goes to ws.d_inverse (column 0 its
// diagonal, column 1 the off-diagonal of each 2x2 block at its first
// column). Returns the number of columns factored.
std::size_t ldlt_panel(MutView a, std::size_t n, std::size_t k0, MutView w,
                       SpinBlockWorkspace& ws) {
  const std::size_t ld = a.ld;
  std::size_t k = k0;
  while (k < n && k - k0 < kNb) {
    const std::size_t c = k - k0;
    const std::size_t r0 = k / kVec * kVec;
    const double colmax =
        update_panel_column(a.re(k), a.im(k), a, w, k0, c, c, k, r0, k);
    const double absakk = cabs1_at(w, k, c);
    if (std::max(absakk, colmax) == 0.0)
      throw SingularMatrixError(original_column(ws.f_pivots, k));
    std::size_t kp = k;
    std::size_t step = 1;
    if (absakk < kBunchKaufmanAlpha * colmax) {
      const std::size_t imax =
          first_row_attaining(w.re(c), w.im(c), k + 1, ld, colmax);
      // The candidate: column imax, up to date, in W(:, c + 1). In the
      // lower triangle its rows k .. imax - 1 lie along row imax.
      double* cr = w.re(c + 1);
      double* ci = w.im(c + 1);
      std::fill(cr + r0, cr + k, 0.0);
      std::fill(ci + r0, ci + k, 0.0);
      for (std::size_t j = k; j < imax; ++j) {
        cr[j] = a.re(j)[imax];
        ci[j] = a.im(j)[imax];
      }
      std::copy(a.re(imax) + imax, a.re(imax) + ld, cr + imax);
      std::copy(a.im(imax) + imax, a.im(imax) + ld, ci + imax);
      update_panel_column(cr, ci, a, w, k0, c + 1, c, imax, r0, imax);
      double rowmax = 0.0;
      for (std::size_t j = k; j < n; ++j)
        if (j != imax) rowmax = std::max(rowmax, cabs1_at(w, j, c + 1));
      if (absakk >= kBunchKaufmanAlpha * colmax * (colmax / rowmax)) {
        // 1x1 pivot, no interchange.
      } else if (cabs1_at(w, imax, c + 1) >= kBunchKaufmanAlpha * rowmax) {
        kp = imax;  // 1x1 pivot after interchanging k and imax
        std::copy(cr + r0, cr + ld, w.re(c) + r0);
        std::copy(ci + r0, ci + ld, w.im(c) + r0);
      } else {
        kp = imax;  // 2x2 pivot after interchanging k + 1 and imax
        step = 2;
      }
    }

    const std::size_t kk = k + step - 1;
    ws.f_pivots[k] = k;
    ws.f_pivots[kk] = kp;
    if (kp != kk) {
      a.re(kp)[kp] = a.re(kk)[kk];
      a.im(kp)[kp] = a.im(kk)[kk];
      for (std::size_t j = kk + 1; j < kp; ++j) {
        a.re(j)[kp] = a.re(kk)[j];
        a.im(j)[kp] = a.im(kk)[j];
      }
      std::copy(a.re(kk) + kp + 1, a.re(kk) + ld, a.re(kp) + kp + 1);
      std::copy(a.im(kk) + kp + 1, a.im(kk) + ld, a.im(kp) + kp + 1);
      swap_rows(a, kk, kp, kk);
      swap_rows(w, kk, kp, kk - k0 + 1);
    }

    if (step == 1) {
      const Complex inv = reciprocal(w.re(c)[k], w.im(c)[k]);
      scale_below(w.re(c), w.im(c), a.re(k), a.im(k), k, ld, inv);
      ws.d_inverse.set(k, 0, inv);
    } else {
      // D's block [[d_kk, d_k1], [d_k1, d_11]] and its inverse, in ZLASYF's
      // scaled form; [L_k L_k1] = [W_k W_k1] D^-1.
      const Complex d21{w.re(c)[k + 1], w.im(c)[k + 1]};
      const Complex d11 = Complex{w.re(c + 1)[k + 1], w.im(c + 1)[k + 1]} / d21;
      const Complex d22 = Complex{w.re(c)[k], w.im(c)[k]} / d21;
      const Complex denom = d11 * d22 - 1.0;
      if (denom == Complex{0.0, 0.0})
        throw SingularMatrixError(original_column(ws.f_pivots, k + 1));
      const Complex t = 1.0 / (denom * d21);
      const Complex e11 = t * d11;
      const Complex e21 = -t;
      const Complex e22 = t * d22;
      const Vd e11r = simd::broadcast(e11.real());
      const Vd e11i = simd::broadcast(e11.imag());
      const Vd e21r = simd::broadcast(e21.real());
      const Vd e21i = simd::broadcast(e21.imag());
      const Vd e22r = simd::broadcast(e22.real());
      const Vd e22i = simd::broadcast(e22.imag());
      for (std::size_t r = k / kVec * kVec; r < ld; r += kVec) {
        const Vd pr = simd::load(w.re(c) + r);
        const Vd pi = simd::load(w.im(c) + r);
        const Vd qr = simd::load(w.re(c + 1) + r);
        const Vd qi = simd::load(w.im(c + 1) + r);
        simd::store(a.re(k) + r, pr * e11r - pi * e11i + qr * e21r - qi * e21i);
        simd::store(a.im(k) + r, pr * e11i + pi * e11r + qr * e21i + qi * e21r);
        simd::store(a.re(k + 1) + r,
                    pr * e21r - pi * e21i + qr * e22r - qi * e22i);
        simd::store(a.im(k + 1) + r,
                    pr * e21i + pi * e21r + qr * e22i + qi * e22r);
      }
      a.re(k)[k] = w.re(c)[k];
      a.im(k)[k] = w.im(c)[k];
      a.re(k)[k + 1] = a.im(k)[k + 1] = 0.0;
      a.re(k + 1)[k + 1] = w.re(c + 1)[k + 1];
      a.im(k + 1)[k + 1] = w.im(c + 1)[k + 1];
      ws.d_inverse.set(k, 0, e11);
      ws.d_inverse.set(k + 1, 0, e22);
      ws.d_inverse.set(k, 1, e21);
      ws.f_pairs.push_back(k);
    }
    k += step;
  }
  return k - k0;
}

// In-place blocked Bunch-Kaufman LDL^T of the complex symmetric ws.f (its
// lower triangle): panels by ldlt_panel, each followed by the trailing
// update of the lower triangle, A22 -= L21 (L21 D)^T, through the tile fed
// a transposed copy of the panel's W rows. W lives in ws.f_inverse's first
// kNb + 1 columns and the copy in ws.l_inverse (both n x n, both free until
// the inverse). Books perf::cost::zsytrf(n) whatever the pivots: each panel
// zsytrf_panel, each update zsytrf_trailing.
void ldlt_factor(SpinBlockWorkspace& ws) {
  const std::size_t n = ws.f.rows();
  const std::size_t ld = ws.f.ld();
  ws.f_pivots.resize(n);
  ws.f_pairs.clear();
  ws.d_inverse.zero(n, 2);
  const MutView a = view(ws.f);
  const MutView w = view(ws.f_inverse);
  const MutView wt = view(ws.l_inverse);
  for (std::size_t k0 = 0; k0 < n;) {
    const std::size_t width = ldlt_panel(a, n, k0, w, ws);
    perf::add_flops(perf::Kernel::kPanel,
                    perf::cost::zsytrf_panel(n - k0, width));
    const std::size_t k1 = k0 + width;
    if (k1 < n) {
      // From the vector holding row k1: the columns before k1 in wt are
      // scratch too.
      const std::size_t k1_vector = k1 / kVec * kVec;
      transpose(w.at(k1_vector, 0), wt.at(0, k1_vector), width,
                n - k1_vector);
      subtract_lower(a, a.at(0, k0), wt, k1, n, ld, width);
      perf::add_flops(perf::Kernel::kZgemm,
                      perf::cost::zsytrf_trailing(n - k1, width));
    }
    k0 = k1;
  }
}

// ws.f_inverse := F^-1 = P L^-T D^-1 L^-1 P^T from ldlt_factor's factors:
//  1. L^-1 into ws.l_inverse by the forward substitution on the identity
//     (column c from row c; block k0 touches only columns < k0 + kNb, and
//     its strict upper blocks keep the panel scratch);
//  2. T = -(D^-1 L^-1)^T over the spent factors in ws.f: row k of L^-1
//     (entries 0..k) becomes column k, times -D^-1 (a 2x2 block mixes two
//     columns);
//  3. the lower triangle of L^-T D^-1 L^-1 = -T L^-1 by the tile (C taken
//     as zero), each row tile from the deepest row it needs (T's entry
//     (i, k) is zero for k < i - 1, L^-1's (k, j) for k < j);
//  4. its mirror into the upper triangle, then the interchanges in reverse
//     order on rows and columns.
// Books perf::cost::zsytri(n) whatever the pivots.
void invert_ldlt(SpinBlockWorkspace& ws) {
  const std::size_t n = ws.f.rows();
  const std::size_t ld = ws.f.ld();
  const MutView l = view(ws.f);
  const MutView x = view(ws.l_inverse);
  for (std::size_t k0 = 0; k0 < n; k0 += kNb) {
    const std::size_t w = std::min(kNb, n - k0);
    const std::size_t rem = n - k0 - w;
    // Only the diagonal block starts as the identity: the rows below it
    // are first written by this block's tile (C taken as zero), and the
    // strict upper blocks are neither written nor read.
    for (std::size_t c = k0; c < k0 + w; ++c) {
      std::fill(x.re(c) + k0, x.re(c) + k0 + kNb, 0.0);
      std::fill(x.im(c) + k0, x.im(c) + k0 + kNb, 0.0);
      x.re(c)[c] = 1.0;
    }
    lower_solve_columns(l.at(k0, k0), w, x.at(k0, 0), k0 + w);
    perf::add_flops(perf::Kernel::kTrsm,
                    perf::cost::ztrsm_unit_lower(w, k0) +
                        perf::cost::ztrtri_unit_lower(w));
    if (rem == 0) break;
    subtract_product(x.at(k0 + kNb, 0), l.at(k0 + kNb, k0), x.at(k0, 0),
                     ld - k0 - kNb, k0, w);
    subtract_product<false>(x.at(k0 + kNb, k0), l.at(k0 + kNb, k0),
                            x.at(k0, k0), ld - k0 - kNb, w, w);
    // The block's own column k0 + i reaches the rows below with depth
    // w - i; those depths sum to w(w + 1)/2.
    perf::add_flops(perf::Kernel::kZgemm,
                    perf::cost::zgemm(rem, k0, w) +
                        perf::cost::zgemm(rem, 1, w * (w + 1) / 2));
  }

  // T = -(D^-1 L^-1)^T: column k is row k of L^-1, which is zero past k,
  // times -D^-1's diagonal entry k, so a block of kVec columns transposes
  // only the columns of L^-1 up to its own last one and is zero below. A
  // 2x2 block of D then adds its off-diagonal term to its two columns.
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t e = 0; e < 2; ++e) {
      ws.d_inverse.re(e)[k] = -ws.d_inverse.re(e)[k];
      ws.d_inverse.im(e)[k] = -ws.d_inverse.im(e)[k];
    }
  const MutView t = l;
  const ConstView minus_d_inverse = view(ws.d_inverse);
  for (std::size_t c = 0; c < n; c += kVec) {
    const std::size_t width = std::min(kVec, n - c);
    const std::size_t rows = std::min(c + kVec, n);
    const ConstView scale = minus_d_inverse.at(c, 0);
    transpose(x.at(c, 0), t.at(0, c), rows, width, &scale);
    for (std::size_t q = c; q < c + width; ++q) {
      std::fill(t.re(q) + rows, t.re(q) + n, 0.0);
      std::fill(t.im(q) + rows, t.im(q) + n, 0.0);
    }
  }
  for (const std::size_t k : ws.f_pairs) {
    const Complex e21 = ws.d_inverse(k, 1);
    for (std::size_t i = 0; i <= k + 1; ++i) {
      const Complex from_k1{x.re(i)[k + 1], x.im(i)[k + 1]};
      const Complex u = Complex{t.re(k)[i], t.im(k)[i]} + e21 * from_k1;
      t.re(k)[i] = u.real();
      t.im(k)[i] = u.imag();
      if (i > k) continue;  // L^-1 is zero past its diagonal
      const Complex from_k{x.re(i)[k], x.im(i)[k]};
      const Complex v = Complex{t.re(k + 1)[i], t.im(k + 1)[i]} + e21 * from_k;
      t.re(k + 1)[i] = v.real();
      t.im(k + 1)[i] = v.imag();
    }
  }
  perf::add_flops(perf::Kernel::kTrsm, 3 * n * (n + 1));

  const MutView z = view(ws.f_inverse);
  for (std::size_t j = 0; j < n; j += kTileCols) {
    const std::size_t cols = std::min(kTileCols, n - j);
    for (std::size_t i0 = j / kTileRows * kTileRows; i0 < n;
         i0 += kTileRows) {
      const std::size_t k_lo = std::max(j, i0 == 0 ? 0 : i0 - 1);
      subtract_product<false>(z.at(i0, j), t.at(i0, k_lo), x.at(k_lo, j),
                              kTileRows, cols, n - k_lo);
    }
  }
  perf::add_flops(perf::Kernel::kZgemm, 4 * n * (n + 1) * (n + 2) / 3);

  // The mirror, kVec columns at a time: the diagonal block's upper
  // triangle from its own transpose, the rows below it by the transpose.
  for (std::size_t j0 = 0; j0 < n; j0 += kVec) {
    const std::size_t w = std::min(kVec, n - j0);
    Vd vr[kVec];
    Vd vi[kVec];
    Vd tr[kVec];
    Vd ti[kVec];
    for (std::size_t q = 0; q < kVec; ++q) {
      tr[q] = vr[q] = q < w ? simd::load(z.re(j0 + q) + j0) : Vd{};
      ti[q] = vi[q] = q < w ? simd::load(z.im(j0 + q) + j0) : Vd{};
    }
    simd::transpose(tr);
    simd::transpose(ti);
    for (std::size_t q = 0; q < w; ++q) {
      const auto above =
          simd::iota(0) < simd::broadcast(static_cast<double>(q));
      simd::store(z.re(j0 + q) + j0, above ? tr[q] : vr[q]);
      simd::store(z.im(j0 + q) + j0, above ? ti[q] : vi[q]);
    }
    transpose(z.at(j0 + w, j0), z.at(j0, j0 + w), w, n - j0 - w);
  }
  // A column's planes are 2 ld contiguous doubles.
  for (std::size_t k = n; k-- > 0;) {
    const std::size_t p = ws.f_pivots[k];
    if (p == k) continue;
    std::swap_ranges(z.re(k), z.re(k) + 2 * ld, z.re(p));
    swap_rows(z, k, p, n);
  }
}

// spin_block_solve's flops besides zgetrs, F's LDL^T and inverse and S2's
// LU: per entry of S2 one complex multiply and one complex
// multiply-subtract; the products F^-1 b and F^-1 c; the scalings
// T_ud o (F^-1 c) and T_du o w; and the five closing dot products.
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

  // F = K + T_uu (K's diagonal is zero), factored as L D L^T, then
  // inverted. The LDL^T reads only F's lower triangle, so only that is
  // copied; the strict upper triangle keeps the previous solve's (finite)
  // values as scratch. The panel scratch in the other two matrices is
  // overwritten before it is read. A matrix is zeroed only when its shape
  // changes, which keeps its pad rows zero.
  for (SplitMatrix* m : {&ws.f, &ws.f_inverse, &ws.l_inverse})
    if (m->rows() != n || m->cols() != n) m->zero(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    std::copy(k.re(j) + j, k.re(j) + ld, ws.f.re(j) + j);
    std::copy(k.im(j) + j, k.im(j) + ld, ws.f.im(j) + j);
    ws.f.set(j, j, site_blocks[j][0]);
  }
  ldlt_factor(ws);
  invert_ldlt(ws);

  // One pass over F^-1's columns writes S2 = K + T_dd - T_du F^-1 T_ud
  // over F's spent factors and accumulates w = F^-1 b and F^-1 c (F^-1 is
  // symmetric, so its columns give F^-1 c as dot products).
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
  //   C A^-1 B = [ c.w + y.x0   -y.x1 ]    with y = T_ud o F^-1 c.
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
