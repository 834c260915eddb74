// Tests for the reference LU factorization, inverse and log-determinant, and
// for the split-plane kernels (split_getrf, and spin_block_solve with its
// LDL^T of the spin-up block) against them.
#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/split.hpp"
#include "perf/flops.hpp"

namespace wlsms::linalg {
namespace {

ZMatrix random_matrix(std::size_t n, Rng& rng) {
  ZMatrix m(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r)
      m(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  // Diagonal dominance keeps the condition number benign for the exactness
  // checks below.
  for (std::size_t d = 0; d < n; ++d) m(d, d) += Complex{4.0, 0.0};
  return m;
}

class LuSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuSizes, InverseTimesMatrixIsIdentity) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 1);
  const ZMatrix a = random_matrix(n, rng);
  const ZMatrix inv = inverse(a);
  const ZMatrix prod = multiply(a, inv);
  EXPECT_LT(prod.max_abs_diff(ZMatrix::identity(n)),
            1e-11 * static_cast<double>(n));
}

TEST_P(LuSizes, SolveRecoversKnownSolution) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 2);
  const ZMatrix a = random_matrix(n, rng);
  ZMatrix x_true(n, 2);
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t r = 0; r < n; ++r)
      x_true(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const ZMatrix b = multiply(a, x_true);
  const ZMatrix x = LuFactorization(a).solve(b);
  EXPECT_LT(x.max_abs_diff(x_true), 1e-10 * static_cast<double>(n));
}

TEST_P(LuSizes, LogDetMatchesProductOfEigenvaluesForTriangular) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 3);
  // Upper-triangular matrix: det = product of diagonal entries.
  ZMatrix t(n, n);
  Complex expected_log{0.0, 0.0};
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < c; ++r)
      t(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const Complex d{rng.uniform(0.5, 2.0), rng.uniform(-0.4, 0.4)};
    t(c, c) = d;
    expected_log += Complex{std::log(std::abs(d)), std::arg(d)};
  }
  const Complex got = log_det(t);
  EXPECT_NEAR(got.real(), expected_log.real(), 1e-10);
  // The imaginary part is branch-dependent; compare modulo 2 pi.
  const double two_pi = 2.0 * std::acos(-1.0);
  double diff = std::fmod(got.imag() - expected_log.imag(), two_pi);
  if (diff > two_pi / 2) diff -= two_pi;
  if (diff < -two_pi / 2) diff += two_pi;
  EXPECT_NEAR(diff, 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 64, 130));

// ---------------------------------------------------------------------------
// The blocked split-plane LU (split_getrf) against the interleaved
// reference (zgetrf_in_place). Both pick the first row attaining the
// largest CABS1, so they must agree on pivots and parity exactly and on the
// factors to roundoff.

// Packed factors, pivots and swap parity of one factorization.
struct Factors {
  ZMatrix packed;
  std::vector<std::size_t> pivots;
  int parity = 1;
};

// The kernel under test: split_getrf on a plane copy of `a`, its factors
// re-interleaved.
Factors split_factors(const ZMatrix& a) {
  SplitMatrix planes(a);
  Factors f;
  f.parity = split_getrf(planes, f.pivots);
  planes.copy_to(f.packed);
  return f;
}

Factors reference_factors(ZMatrix a) {
  Factors f;
  f.parity = zgetrf_in_place(a, f.pivots);
  f.packed = std::move(a);
  return f;
}

// A^-1 B from either factorization.
ZMatrix solve(const Factors& f, ZMatrix b) {
  zgetrs_in_place(f.packed, f.pivots, b.data(), b.cols(), b.rows());
  return b;
}

ZMatrix reconstruct_plu(const Factors& f) {
  const std::size_t n = f.packed.rows();
  ZMatrix l = ZMatrix::identity(n);
  ZMatrix u(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r) {
      if (r > c)
        l(r, c) = f.packed(r, c);
      else
        u(r, c) = f.packed(r, c);
    }
  ZMatrix lu = multiply(l, u);
  // Undo the row interchanges in reverse: P^T (L U) should equal A.
  for (std::size_t k = n; k-- > 0;) {
    const std::size_t p = f.pivots[k];
    if (p == k) continue;
    for (std::size_t c = 0; c < n; ++c) std::swap(lu(k, c), lu(p, c));
  }
  return lu;
}

std::size_t swaps(const std::vector<std::size_t>& pivots) {
  std::size_t n = 0;
  for (std::size_t k = 0; k < pivots.size(); ++k) n += pivots[k] != k ? 1 : 0;
  return n;
}

TEST(LuBlocked, FactorizesPermutationMatrixExactly) {
  // Every pivot search must walk past zeros to the single 1 in the column;
  // a pure permutation stresses the row-interchange bookkeeping.
  const std::size_t n = 130;
  ZMatrix p(n, n);
  for (std::size_t c = 0; c < n; ++c) p((c + 37) % n, c) = {1.0, 0.0};
  const Factors f = split_factors(p);
  EXPECT_LT(multiply(p, solve(f, ZMatrix::identity(n)))
                .max_abs_diff(ZMatrix::identity(n)),
            1e-13);
  double log_abs_det = 0.0;
  for (std::size_t k = 0; k < n; ++k)
    log_abs_det += std::log(std::abs(f.packed(k, k)));
  EXPECT_NEAR(log_abs_det, 0.0, 1e-13);
}

TEST(LuBlocked, HandlesNearSingularMatrix) {
  // One row nearly linearly dependent on another: the factorization must
  // pivot through the tiny remaining entries and still solve accurately
  // (residual-wise), blocked and reference alike.
  const std::size_t n = 96;
  Rng rng(961);
  ZMatrix a = random_matrix(n, rng);
  for (std::size_t c = 0; c < n; ++c)
    a(1, c) = a(0, c) * Complex{2.0, 0.0} + a(1, c) * Complex{1e-10, 0.0};
  ZMatrix x_true(n, 1);
  for (std::size_t r = 0; r < n; ++r)
    x_true(r, 0) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const ZMatrix b = multiply(a, x_true);
  EXPECT_LT(multiply(a, solve(split_factors(a), b)).max_abs_diff(b), 1e-7)
      << "split_getrf";
  EXPECT_LT(multiply(a, solve(reference_factors(a), b)).max_abs_diff(b), 1e-7)
      << "zgetrf_in_place";
}

TEST(LuBlocked, InstrumentedFlopsMatchAnalyticCount) {
  // The per-kernel counters booked by the panel/TRSM/GEMM pieces must sum
  // to exactly the perf::cost formula each factorization is counted by.
  const std::size_t n = 130;
  Rng rng(n);
  const ZMatrix a = random_matrix(n, rng);
  {
    SplitMatrix planes(a);
    std::vector<std::size_t> pivots;
    const perf::FlopWindow window;
    split_getrf(planes, pivots);
    EXPECT_EQ(window.elapsed(), perf::cost::zgetrf_blocked(n, kLuBlockSize));
  }
  {
    ZMatrix lu = a;
    std::vector<std::size_t> pivots;
    const perf::FlopWindow window;
    zgetrf_in_place(lu, pivots);
    EXPECT_EQ(window.elapsed(), perf::cost::zgetrf_panel(n, n));
    EXPECT_EQ(window.elapsed(perf::Kernel::kPanel), window.elapsed());
  }
}

TEST(LuBlocked, GemmCarriesMostBlockedFlops) {
  // The point of the blocked factorization: at LIZ-sized orders the GEMM
  // trailing updates retire the bulk of the flops.
  const std::size_t n = 128;
  Rng rng(1281);
  SplitMatrix a(random_matrix(n, rng));
  std::vector<std::size_t> pivots;
  const perf::FlopWindow window;
  split_getrf(a, pivots);
  EXPECT_GE(window.gemm_fraction(), 0.6);
}

// ---------------------------------------------------------------------------
// The same comparison at orders that cover every register tile, panel and
// padding edge: below, at and just past one vector, one 16-column panel and
// four panels, and the paper's zone orders (28 = 15-atom LIZ, 128 = 65-atom
// LIZ). The matrices get no diagonal shift, so partial pivoting swaps rows
// in most columns.

ZMatrix random_general(std::size_t n, Rng& rng) {
  ZMatrix m(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r)
      m(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return m;
}

double relative_error(const ZMatrix& got, const ZMatrix& want) {
  ZMatrix diff = got;
  diff.axpy(Complex{-1.0, 0.0}, want);
  return diff.frobenius_norm() / want.frobenius_norm();
}

class SplitLuOrders : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SplitLuOrders, MatchesUnblockedPivotsAndRebuildsMatrix) {
  const std::size_t n = GetParam();
  Rng rng(7000 + n);
  const ZMatrix a = random_general(n, rng);
  const Factors blocked = split_factors(a);
  const Factors reference = reference_factors(a);
  EXPECT_EQ(blocked.pivots, reference.pivots);
  // The swap parity is the sign det and log_det take from the pivots.
  EXPECT_EQ(blocked.parity, reference.parity);
  EXPECT_EQ(blocked.parity, swaps(blocked.pivots) % 2 == 0 ? 1 : -1);
  EXPECT_LT(relative_error(reconstruct_plu(blocked), a), 1e-12);
  EXPECT_LT(relative_error(blocked.packed, reference.packed), 1e-12);
}

TEST_P(SplitLuOrders, ZeroColumnThrowsNamingThatColumn) {
  const std::size_t n = GetParam();
  for (const std::size_t column : {std::size_t{0}, std::size_t{15},
                                   std::size_t{16}, n - 1}) {
    if (column >= n) continue;
    Rng rng(9000 + n);
    ZMatrix a = random_general(n, rng);
    for (std::size_t r = 0; r < n; ++r) a(r, column) = Complex{0.0, 0.0};
    for (const bool blocked : {true, false}) {
      const char* name = blocked ? "split_getrf" : "zgetrf_in_place";
      try {
        if (blocked)
          split_factors(a);
        else
          reference_factors(a);
        ADD_FAILURE() << "no throw for zero column " << column << ", "
                      << name;
      } catch (const SingularMatrixError& e) {
        EXPECT_EQ(e.column(), column) << name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, SplitLuOrders,
                         ::testing::Values(1, 2, 7, 8, 15, 16, 17, 28, 33, 63,
                                           64, 65, 127, 128, 130, 192));

// One spin-block problem: the spin-free hopping k (L x L, zero diagonal),
// the couplings b and c (L x 1) and the member site blocks {T_uu, T_ud,
// T_du, T_dd}, as spin_block_solve takes them.
struct SpinBlockProblem {
  SplitMatrix k;
  SplitMatrix b;
  SplitMatrix c;
  std::vector<std::array<Complex, 4>> blocks;
};

Complex random_complex(Rng& rng) {
  return {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
}

// A random problem with a symmetric k. Each site block is random, its
// spin-diagonal entries scaled by `uu` and `dd` and shifted by `shift_uu`
// and `shift_dd`, and its spin-flip entries scaled by `flip`.
SpinBlockProblem random_spin_block(std::size_t l, Rng& rng, double uu = 1.0,
                                   double dd = 1.0, double flip = 1.0,
                                   double shift_uu = 0.0,
                                   double shift_dd = 0.0) {
  SpinBlockProblem p{SplitMatrix(l, l), SplitMatrix(l, 1), SplitMatrix(l, 1),
                     {}};
  for (std::size_t c = 0; c < l; ++c)
    for (std::size_t r = 0; r < c; ++r) {
      const Complex v = random_complex(rng);
      p.k.set(r, c, v);
      p.k.set(c, r, v);
    }
  for (std::size_t r = 0; r < l; ++r) {
    p.b.set(r, 0, random_complex(rng));
    p.c.set(r, 0, random_complex(rng));
    p.blocks.push_back({uu * random_complex(rng) + shift_uu,
                        flip * random_complex(rng), flip * random_complex(rng),
                        dd * random_complex(rng) + shift_dd});
  }
  return p;
}

// C A^-1 B of the problem by the dense reference LU, with A, B and C
// assembled in spin-major order (column-major 2x2: {00, 10, 01, 11}).
std::array<Complex, 4> dense_coupling(const SpinBlockProblem& p) {
  const std::size_t l = p.k.rows();
  ZMatrix a(2 * l, 2 * l);
  ZMatrix b(2 * l, 2);
  ZMatrix c(2, 2 * l);
  for (std::size_t sigma = 0; sigma < 2; ++sigma)
    for (std::size_t j = 0; j < l; ++j) {
      for (std::size_t k = 0; k < l; ++k)
        a(sigma * l + j, sigma * l + k) = p.k(j, k);
      for (std::size_t tau = 0; tau < 2; ++tau)
        a(sigma * l + j, tau * l + j) += p.blocks[j][2 * sigma + tau];
      b(sigma * l + j, sigma) = p.b(j, 0);
      c(sigma, sigma * l + j) = p.c(j, 0);
    }
  const ZMatrix x = LuFactorization(a).solve(b);
  const ZMatrix cx = multiply(c, x);
  return {cx(0, 0), cx(1, 0), cx(0, 1), cx(1, 1)};
}

std::uint64_t spin_block_flops(std::size_t l) {
  return perf::cost::zsytrf(l) + perf::cost::zsytri(l) +
         perf::cost::zgetrf_blocked(l, kLuBlockSize) +
         spin_block_coupling_flops(l);
}

// Runs spin_block_solve on `p` from a fixed s and checks s -= C A^-1 B
// against the dense reference, and the booked flops against the count.
void expect_matches_dense(const SpinBlockProblem& p, SpinBlockWorkspace& ws,
                          const std::string& label) {
  const std::size_t l = p.k.rows();
  const std::array<Complex, 4> s0 = {Complex{1, 0}, Complex{0, 1},
                                     Complex{2, 0}, Complex{0, 2}};
  std::array<Complex, 4> s = s0;
  const perf::FlopWindow window;
  spin_block_solve(p.k, p.b, p.c, p.blocks.data(), ws, s);
  EXPECT_EQ(window.elapsed(), spin_block_flops(l)) << label;
  const std::array<Complex, 4> cab = dense_coupling(p);
  double scale = 0.0;
  for (const Complex& v : cab) scale = std::max(scale, std::abs(v));
  for (int e = 0; e < 4; ++e)
    EXPECT_LT(std::abs(s[e] - (s0[e] - cab[e])), 1e-11 * scale)
        << label << " entry " << e;
}

// The planes' pad rows must stay exactly zero through the factorizations,
// the inverse and the solve, or a later kernel that sweeps whole vectors
// would fold garbage into real rows.
void expect_pad_rows_zero(const SpinBlockWorkspace& ws, std::size_t l,
                          const std::string& label) {
  for (const SplitMatrix* m : {&ws.f, &ws.f_inverse, &ws.l_inverse,
                               &ws.d_inverse, &ws.vectors, &ws.x})
    for (std::size_t c = 0; c < m->cols(); ++c)
      for (std::size_t r = l; r < m->ld(); ++r) {
        EXPECT_EQ(m->re(c)[r], 0.0) << label << " row " << r << " col " << c;
        EXPECT_EQ(m->im(c)[r], 0.0) << label << " row " << r << " col " << c;
      }
}

TEST(SplitLu, PivotsOnGeneralMatricesAndKeepsPadRowsZero) {
  // Order 28 pads to 32. Tiny site blocks leave both spin blocks dominated
  // by the hopping, so both factorizations pivot.
  const std::size_t l = 28;
  Rng rng(2801);
  const SpinBlockProblem p = random_spin_block(l, rng, 1e-3, 1e-3, 1e-3);
  SpinBlockWorkspace ws;
  std::array<Complex, 4> s{};
  spin_block_solve(p.k, p.b, p.c, p.blocks.data(), ws, s);
  ASSERT_GT(ws.f.ld(), l);
  EXPECT_GT(swaps(ws.f_pivots), 0u);
  EXPECT_GT(swaps(ws.s2_pivots), 0u);
  expect_pad_rows_zero(ws, l, "L=28");
}

TEST(SplitLu, SpinBlockSolveMatchesDenseAlgebra) {
  // s -= C A^-1 B against the interleaved reference LU of the assembled
  // 2L x 2L block, at orders around the 16-row block edges and at the fast
  // (L = 14) and paper (L = 64) zones, with exact flop bookkeeping. One
  // workspace serves every order, and the sequence runs member blocks of
  // order 128 -> 28 -> 128 back to back: the padded leading dimension
  // shrinks and grows again.
  SpinBlockWorkspace ws;
  for (const std::size_t l : {1, 5, 14, 16, 17, 64, 14, 64, 65}) {
    Rng rng(4000 + l);
    expect_matches_dense(random_spin_block(l, rng), ws,
                         "L=" + std::to_string(l));
  }
}

TEST(SplitLu, SpinBlockSolvePivotsInEitherSpinBlock) {
  // Small T_uu leaves F = K + T_uu dominated by the hopping, so its LDL^T
  // interchanges rows and columns, while a large T_dd makes S2 diagonally
  // dominant; then the other way round. No pivoting crosses the spin
  // blocks, and each case must still match the dense reference.
  SpinBlockWorkspace ws;
  for (const std::size_t l : {14, 64, 65}) {
    const double big = 4.0 * static_cast<double>(l);
    Rng rng(4100 + l);
    const SpinBlockProblem in_f =
        random_spin_block(l, rng, 1e-3, 1.0, 1e-3, 0.0, big);
    expect_matches_dense(in_f, ws, "F, L=" + std::to_string(l));
    EXPECT_GT(swaps(ws.f_pivots), 0u) << "L=" << l;
    EXPECT_EQ(swaps(ws.s2_pivots), 0u) << "L=" << l;

    const SpinBlockProblem in_s2 =
        random_spin_block(l, rng, 1.0, 1e-3, 1e-3, big, 0.0);
    expect_matches_dense(in_s2, ws, "S2, L=" + std::to_string(l));
    EXPECT_EQ(swaps(ws.f_pivots), 0u) << "L=" << l;
    EXPECT_GT(swaps(ws.s2_pivots), 0u) << "L=" << l;
  }
}

// A problem whose F = K + T_uu and S2 are both strongly diagonal (neither
// factorization pivots) until a test weakens chosen members.
SpinBlockProblem dominant_spin_block(std::size_t l, Rng& rng) {
  const double big = 4.0 * static_cast<double>(l);
  return random_spin_block(l, rng, 1.0, 1.0, 1e-3, big, big);
}

// F's 1x1 pivots with an interchange: member m has T_uu = 0, so column m
// of F fails the alpha-test against its largest hopping entry, whose row
// (a strongly diagonal member, mostly in a later panel at L = 64 and 65)
// passes it: rows and columns m and that row swap, across every earlier
// column of L. The weak diagonal moves down to that row and may fail the
// test again there, so a few interchanges follow, none of them a 2x2.
TEST(SplitLu, SpinBlockSolveInterchangesOneByOnePivots) {
  SpinBlockWorkspace ws;
  for (const std::size_t l : {14, 64, 65}) {
    const std::string label = "L=" + std::to_string(l);
    Rng rng(4400 + l);
    SpinBlockProblem p = dominant_spin_block(l, rng);
    const std::size_t m = l < 20 ? 5 : 17;
    p.blocks[m][0] = Complex{0.0, 0.0};
    expect_matches_dense(p, ws, label);
    EXPECT_GE(swaps(ws.f_pivots), 1u) << label;
    EXPECT_NE(ws.f_pivots[m], m) << label;
    EXPECT_TRUE(ws.f_pairs.empty()) << label;
    EXPECT_EQ(swaps(ws.s2_pivots), 0u) << label;
    expect_pad_rows_zero(ws, l, label);
  }
}

// F's 2x2 pivots: members 0 and 1 have T_uu = 0 and the largest hopping
// entry couples them, so the leading pair is one 2x2 block of D. At L = 64
// and 65 a second such pair straddles the first panel's edge (columns 15
// and 16), so that panel factors 17 columns and the next starts at 17.
TEST(SplitLu, SpinBlockSolveTakesTwoByTwoPivots) {
  SpinBlockWorkspace ws;
  for (const std::size_t l : {14, 64, 65}) {
    const std::string label = "L=" + std::to_string(l);
    Rng rng(4500 + l);
    SpinBlockProblem p = dominant_spin_block(l, rng);
    std::vector<std::size_t> pairs = {0};
    if (l > 2 * kLuBlockSize) pairs.push_back(kLuBlockSize - 1);
    for (const std::size_t j : pairs) {
      p.blocks[j][0] = p.blocks[j + 1][0] = Complex{0.0, 0.0};
      p.k.set(j, j + 1, Complex{8.0, 1.0});
      p.k.set(j + 1, j, Complex{8.0, 1.0});
    }
    expect_matches_dense(p, ws, label);
    EXPECT_EQ(ws.f_pairs, pairs) << label;
    EXPECT_EQ(swaps(ws.f_pivots), 0u) << label;
    expect_pad_rows_zero(ws, l, label);
  }
}

// S2's LU pivots while F's LDL^T does not: tiny T_dd leaves
// S2 = K + T_dd - T_du F^-1 T_ud dominated by the hopping.
TEST(SplitLu, SpinBlockSolvePivotsInSchurComplement) {
  SpinBlockWorkspace ws;
  for (const std::size_t l : {14, 64, 65}) {
    const std::string label = "L=" + std::to_string(l);
    Rng rng(4600 + l);
    const double big = 4.0 * static_cast<double>(l);
    const SpinBlockProblem p =
        random_spin_block(l, rng, 1.0, 1e-3, 1e-3, big, 0.0);
    expect_matches_dense(p, ws, label);
    EXPECT_EQ(swaps(ws.f_pivots), 0u) << label;
    EXPECT_TRUE(ws.f_pairs.empty()) << label;
    EXPECT_GT(swaps(ws.s2_pivots), 0u) << label;
    expect_pad_rows_zero(ws, l, label);
  }
}

TEST(SplitLu, SpinBlockSolveKeepsCollinearBlocksSpinDiagonal) {
  // With T_ud = T_du = 0 the spin channels never mix: the off-diagonal
  // entries of s come back untouched, bit for bit.
  SpinBlockWorkspace ws;
  for (const std::size_t l : {5, 64}) {
    Rng rng(4200 + l);
    const SpinBlockProblem p = random_spin_block(l, rng, 1.0, 1.0, 0.0);
    expect_matches_dense(p, ws, "L=" + std::to_string(l));
    std::array<Complex, 4> s = {Complex{1, 0}, Complex{0, 1}, Complex{2, 0},
                                Complex{0, 2}};
    spin_block_solve(p.k, p.b, p.c, p.blocks.data(), ws, s);
    EXPECT_EQ(s[1], (Complex{0, 1})) << "L=" << l;
    EXPECT_EQ(s[2], (Complex{2, 0})) << "L=" << l;
  }
}

TEST(SplitLu, SpinBlockSolveThrowsOnSingularSpinUpBlock) {
  // Member `dead` has no hopping and T_uu = 0: column `dead` of F is
  // exactly zero. The error names F's own column even when interchanges
  // moved it first: at L = 14, 64 and 65 the rest of F is random, so the
  // LDL^T takes interchanges and 2x2 pivots before it gets there.
  SpinBlockWorkspace ws;
  for (const std::size_t l : {5, 14, 64, 65}) {
    const std::size_t dead = l - 2;
    Rng rng(4300 + l - 5);
    SpinBlockProblem p = random_spin_block(l, rng);
    for (std::size_t j = 0; j < l; ++j) {
      p.k.set(j, dead, Complex{0.0, 0.0});
      p.k.set(dead, j, Complex{0.0, 0.0});
    }
    p.blocks[dead][0] = Complex{0.0, 0.0};
    std::array<Complex, 4> s{};
    try {
      spin_block_solve(p.k, p.b, p.c, p.blocks.data(), ws, s);
      ADD_FAILURE() << "no throw for a singular F, L=" << l;
    } catch (const SingularMatrixError& e) {
      EXPECT_EQ(e.column(), dead) << "L=" << l;
    }
    if (l > 5) {
      EXPECT_GT(swaps(ws.f_pivots) + ws.f_pairs.size(), 0u) << "L=" << l;
    }
  }
}

TEST(Lu, SolveMultipleRhsInPlace) {
  Rng rng(93);
  const std::size_t n = 40;
  const ZMatrix a = random_matrix(n, rng);
  ZMatrix x_true(n, 3);
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t r = 0; r < n; ++r)
      x_true(r, c) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  ZMatrix b = multiply(a, x_true);
  std::vector<std::size_t> pivots;
  ZMatrix lu = a;
  zgetrf_in_place(lu, pivots);
  zgetrs_in_place(lu, pivots, b.data(), 3, n);
  EXPECT_LT(b.max_abs_diff(x_true), 1e-10);
}

TEST(Lu, DetOfKnownTwoByTwo) {
  ZMatrix m(2, 2);
  m(0, 0) = {1, 0};
  m(0, 1) = {2, 0};
  m(1, 0) = {3, 0};
  m(1, 1) = {4, 0};
  const Complex d = LuFactorization(m).det();
  EXPECT_NEAR(d.real(), -2.0, 1e-13);
  EXPECT_NEAR(d.imag(), 0.0, 1e-13);
}

TEST(Lu, DetTracksRowSwapSign) {
  // Permutation matrix with one swap: det = -1.
  ZMatrix p(2, 2);
  p(0, 1) = {1, 0};
  p(1, 0) = {1, 0};
  const Complex d = LuFactorization(p).det();
  EXPECT_NEAR(d.real(), -1.0, 1e-14);
}

TEST(Lu, LogDetOfIdentityIsZero) {
  const Complex ld = log_det(ZMatrix::identity(7));
  EXPECT_NEAR(ld.real(), 0.0, 1e-14);
  EXPECT_NEAR(ld.imag(), 0.0, 1e-14);
}

TEST(Lu, LogDetRealPartIsScaleCovariant) {
  // log|det(s A)| = n log s + log|det A| for real s > 0.
  Rng rng(91);
  const std::size_t n = 6;
  ZMatrix a = random_matrix(n, rng);
  const double base = log_det(a).real();
  ZMatrix scaled = a;
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r) scaled(r, c) *= 2.0;
  EXPECT_NEAR(log_det(scaled).real(),
              base + static_cast<double>(n) * std::log(2.0), 1e-10);
}

TEST(Lu, SingularMatrixThrows) {
  ZMatrix m(3, 3);  // all zeros
  EXPECT_THROW(LuFactorization{m}, SingularMatrixError);
}

TEST(Lu, RankDeficientThrows) {
  ZMatrix m(2, 2);
  m(0, 0) = {1, 0};
  m(0, 1) = {2, 0};
  m(1, 0) = {2, 0};
  m(1, 1) = {4, 0};  // second row = 2 * first
  EXPECT_THROW(LuFactorization{m}, SingularMatrixError);
}

TEST(Lu, NonSquareThrows) {
  const ZMatrix m(2, 3);
  EXPECT_THROW(LuFactorization{m}, ContractError);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  ZMatrix m(2, 2);
  m(0, 0) = {0, 0};
  m(0, 1) = {1, 0};
  m(1, 0) = {1, 0};
  m(1, 1) = {0, 0};
  const ZMatrix inv = LuFactorization(m).inverse();
  EXPECT_LT(multiply(m, inv).max_abs_diff(ZMatrix::identity(2)), 1e-13);
}

TEST(Lu, SolveInPlaceSingleRhs) {
  Rng rng(92);
  const ZMatrix a = random_matrix(5, rng);
  std::vector<Complex> x_true(5);
  for (Complex& v : x_true) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::vector<Complex> b(5, Complex{0, 0});
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 5; ++i) b[i] += a(i, j) * x_true[j];
  LuFactorization(a).solve_in_place(b.data());
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(std::abs(b[i] - x_true[i]), 0.0, 1e-11);
}

}  // namespace
}  // namespace wlsms::linalg
