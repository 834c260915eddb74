// Tests for the flop-accounting layer and the wall-clock timer.
#include "perf/flops.hpp"
#include "perf/timer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

namespace wlsms::perf {
namespace {

TEST(Flops, ThreadCounterIsMonotonic) {
  const std::uint64_t before = thread_flops();
  add_flops(123);
  EXPECT_EQ(thread_flops(), before + 123);
  add_flops(1);
  EXPECT_EQ(thread_flops(), before + 124);
}

TEST(Flops, WindowMeasuresDelta) {
  FlopWindow window;
  add_flops(1000);
  EXPECT_GE(window.elapsed(), 1000u);
}

TEST(Flops, TotalAggregatesAcrossThreads) {
  FlopWindow window;
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1 << 21;  // exceeds drain threshold
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] { add_flops(kPerThread); });
  for (std::thread& t : threads) t.join();
  EXPECT_GE(window.elapsed(), kThreads * kPerThread);
}

TEST(FlopCosts, GemmCountsEightMNK) {
  EXPECT_EQ(cost::zgemm(2, 3, 4), 8u * 2 * 3 * 4);
  EXPECT_EQ(cost::zgemm(1, 1, 1), 8u);
}

TEST(FlopCosts, GetrfIsCubicOverThree) {
  EXPECT_EQ(cost::zgetrf(3), 8u * 27 / 3);
  // Monotone in n.
  EXPECT_LT(cost::zgetrf(100), cost::zgetrf(101));
}

TEST(FlopCosts, GetrsIsQuadraticPerRhs) {
  EXPECT_EQ(cost::zgetrs(10, 1), 800u);
  EXPECT_EQ(cost::zgetrs(10, 3), 2400u);
}

TEST(Flops, KernelAttributionIsSeparated) {
  FlopWindow window;
  add_flops(Kernel::kZgemm, 600);
  add_flops(Kernel::kTrsm, 250);
  add_flops(Kernel::kPanel, 100);
  add_flops(50);  // legacy overload books under kOther
  EXPECT_EQ(window.elapsed(Kernel::kZgemm), 600u);
  EXPECT_EQ(window.elapsed(Kernel::kTrsm), 250u);
  EXPECT_EQ(window.elapsed(Kernel::kPanel), 100u);
  EXPECT_EQ(window.elapsed(Kernel::kOther), 50u);
  EXPECT_EQ(window.elapsed(), 1000u);
  EXPECT_DOUBLE_EQ(window.gemm_fraction(), 0.6);
}

TEST(Flops, GemmFractionOfEmptyWindowIsZero) {
  const FlopWindow window;
  EXPECT_DOUBLE_EQ(window.gemm_fraction(), 0.0);
}

TEST(FlopCosts, TrsmUnitLowerCountsFusedMultiplyAdds) {
  // n(n-1)/2 complex FMAs (8 flops each) per right-hand side.
  EXPECT_EQ(cost::ztrsm_unit_lower(3, 2), 8u * 3 * 2 / 2 * 2);
  EXPECT_EQ(cost::ztrsm_unit_lower(1, 5), 0u);
  EXPECT_EQ(cost::ztrsm_unit_lower(0, 5), 0u);
}

TEST(FlopCosts, PanelCountsByColumn) {
  // One column: just the pivot reciprocal.
  EXPECT_EQ(cost::zgetrf_panel(1, 1), 6u);
  // Two columns of a 2 x 2: j=0 books 6 + 6 + 8, j=1 books 6.
  EXPECT_EQ(cost::zgetrf_panel(2, 2), 26u);
  // Tall panel, one column: reciprocal + (m-1) scalings.
  EXPECT_EQ(cost::zgetrf_panel(4, 1), 6u + 6u * 3);
}

TEST(FlopCosts, BlockedDegeneratesToPanelForWideBlocks) {
  // nb >= n: a single panel, no TRSM or GEMM terms.
  EXPECT_EQ(cost::zgetrf_blocked(30, 64), cost::zgetrf_panel(30, 30));
}

TEST(FlopCosts, BlockedSumsPanelTrsmGemmTerms) {
  // n=4, nb=2: panel(4,2) + trsm(2,2) + gemm(2,2,2) + panel(2,2).
  const std::uint64_t expected = cost::zgetrf_panel(4, 2) +
                                 cost::ztrsm_unit_lower(2, 2) +
                                 cost::zgemm(2, 2, 2) + cost::zgetrf_panel(2, 2);
  EXPECT_EQ(cost::zgetrf_blocked(4, 2), expected);
}

TEST(FlopCosts, BlockingOnlyMovesFlopsBetweenKernels) {
  // The blocked LU does the unblocked elimination's arithmetic, regrouped:
  // the panel, row-panel TRSM and trailing GEMM terms sum to exactly the
  // unblocked count at every order, so a zone solve books the same total
  // whichever algorithm factors it.
  for (const std::uint64_t n : {1u, 2u, 15u, 16u, 17u, 28u, 33u, 128u, 130u})
    EXPECT_EQ(cost::zgetrf_blocked(n, 16), cost::zgetrf_panel(n, n))
        << "n=" << n;
}

TEST(FlopCosts, LdltCountsLowerTriangleAndScalings) {
  // Entry (i, j) of the lower triangle takes one fused multiply-add per
  // column before j; column j one reciprocal and n - j - 1 scalings (6
  // flops each). A panel counts the same per column, from its first row.
  for (const std::uint64_t n : {1u, 2u, 14u, 16u, 17u, 64u, 65u}) {
    std::uint64_t expected = 0;
    for (std::uint64_t j = 0; j < n; ++j)
      expected += 8 * j * (n - j) + 6 + 6 * (n - j - 1);
    EXPECT_EQ(cost::zsytrf(n), expected) << "n=" << n;
    EXPECT_EQ(cost::zsytrf_panel(n, n), expected) << "n=" << n;
  }
  EXPECT_EQ(cost::zsytrf(0), 0u);
  EXPECT_EQ(cost::zsytrf_trailing(3, 2), 2u * 6u * 8u);  // 6 entries, depth 2
  // Half an LU to leading order.
  const double ratio = static_cast<double>(cost::zsytrf(128)) /
                       static_cast<double>(cost::zgetrf(128));
  EXPECT_NEAR(ratio, 0.5, 0.02);
}

TEST(FlopCosts, LdltBlockingOnlyMovesFlopsBetweenKernels) {
  // Every lower-triangle entry takes the same multiply-adds whichever
  // panel or trailing update retires them, so panels of any widths give
  // the unblocked total: the kernel's 16- and 17-column panels book
  // zsytrf(n) whatever the 2x2 pivots do to their edges.
  const auto blocked = [](std::uint64_t n, std::vector<std::uint64_t> widths) {
    std::uint64_t total = 0;
    std::uint64_t k0 = 0;
    for (std::size_t p = 0; k0 < n; ++p) {
      const std::uint64_t w = std::min(widths[p % widths.size()], n - k0);
      total += cost::zsytrf_panel(n - k0, w) +
               cost::zsytrf_trailing(n - k0 - w, w);
      k0 += w;
    }
    return total;
  };
  for (const std::uint64_t n : {1u, 2u, 14u, 15u, 16u, 17u, 28u, 64u, 65u,
                                128u}) {
    for (const std::uint64_t nb : {1u, 15u, 16u, 17u})
      EXPECT_EQ(blocked(n, {nb}), cost::zsytrf(n)) << "n=" << n << " nb=" << nb;
    EXPECT_EQ(blocked(n, {17, 16, 16}), cost::zsytrf(n)) << "n=" << n;
  }
}

TEST(FlopCosts, SymmetricInverseCountsTriangularInverseScalingAndProduct) {
  // L^-1 column c is a unit-lower solve of order n - c; D^-1 scales its
  // n(n + 1)/2 entries (6 flops each); entry (i, j) of the lower triangle
  // of L^-T D^-1 L^-1 sums the n - i rows its two columns share.
  for (const std::uint64_t n : {1u, 2u, 14u, 64u, 65u}) {
    std::uint64_t lower = 0;
    for (std::uint64_t m = 1; m <= n; ++m)
      lower += cost::ztrsm_unit_lower(m, 1);
    EXPECT_EQ(cost::ztrtri_unit_lower(n), lower) << "n=" << n;
    std::uint64_t product = 0;
    for (std::uint64_t j = 0; j < n; ++j)
      for (std::uint64_t i = j; i < n; ++i) product += 8 * (n - i);
    EXPECT_EQ(cost::zsytri(n), lower + 3 * n * (n + 1) + product)
        << "n=" << n;
  }
  // As much as one LU to leading order, so the spin-block kernel's LDL^T,
  // symmetric inverse and one LU of order n cost (20/3) n^3: 5/16 of one
  // LU of order 2n.
  EXPECT_NEAR(static_cast<double>(cost::zsytri(128)) /
                  static_cast<double>(cost::zgetrf(128)),
              1.0, 0.05);
  const std::uint64_t n = 64;
  EXPECT_NEAR(static_cast<double>(cost::zsytrf(n) + cost::zsytri(n) +
                                  cost::zgetrf_blocked(n, 16)) /
                  static_cast<double>(cost::zgetrf(2 * n)),
              5.0 / 16.0, 0.01);
}

TEST(FlopCosts, BlockedApproachesDenseCountFromBelow) {
  // Both count the same O(n^3) elimination; the panel/blocked forms carry
  // the exact lower-order terms, the classical 8n^3/3 only the leading one.
  const std::uint64_t classic = cost::zgetrf(128);
  const std::uint64_t blocked = cost::zgetrf_blocked(128, 16);
  const double rel = std::abs(static_cast<double>(classic) -
                              static_cast<double>(blocked)) /
                     static_cast<double>(classic);
  EXPECT_LT(rel, 0.05);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double t = timer.seconds();
  EXPECT_GE(t, 0.015);
  EXPECT_LT(t, 5.0);
}

TEST(Timer, ResetRestartsClock) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  timer.reset();
  EXPECT_LT(timer.seconds(), 0.015);
}

}  // namespace
}  // namespace wlsms::perf
