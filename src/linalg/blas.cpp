#include "linalg/blas.hpp"

#include <algorithm>

#include "perf/flops.hpp"

namespace wlsms::linalg {

namespace {

void scale_c(std::size_t m, std::size_t n, Complex beta, Complex* c,
             std::size_t ldc) {
  if (beta == Complex{1.0, 0.0}) return;
  if (beta == Complex{0.0, 0.0}) {
    // Overwrite semantics: never read C, so NaN/Inf in an uninitialized
    // output buffer cannot propagate.
    for (std::size_t j = 0; j < n; ++j)
      std::fill_n(c + j * ldc, m, Complex{0.0, 0.0});
    return;
  }
  for (std::size_t j = 0; j < n; ++j) {
    Complex* cj = c + j * ldc;
    for (std::size_t i = 0; i < m; ++i) cj[i] *= beta;
  }
}

}  // namespace

void zgemm_view(std::size_t m, std::size_t n, std::size_t k, Complex alpha,
                const Complex* a, std::size_t lda, const Complex* b,
                std::size_t ldb, Complex beta, Complex* c, std::size_t ldc) {
  scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == Complex{0.0, 0.0}) return;
  // Cache-tiled j-k-i loop: a column of C takes one axpy per column of A.
  constexpr std::size_t kTileK = 64;
  constexpr std::size_t kTileJ = 64;
  for (std::size_t j0 = 0; j0 < n; j0 += kTileJ) {
    const std::size_t j1 = std::min(j0 + kTileJ, n);
    for (std::size_t k0 = 0; k0 < k; k0 += kTileK) {
      const std::size_t k1 = std::min(k0 + kTileK, k);
      for (std::size_t j = j0; j < j1; ++j) {
        Complex* cj = c + j * ldc;
        const Complex* bj = b + j * ldb;
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const Complex factor = alpha * bj[kk];
          if (factor == Complex{0.0, 0.0}) continue;
          const Complex* ak = a + kk * lda;
          for (std::size_t i = 0; i < m; ++i) cj[i] += factor * ak[i];
        }
      }
    }
  }
  // Booked only when the multiply runs, so alpha == 0 quick returns do not
  // inflate the instrumented counter (or the GEMM fraction).
  perf::add_flops(perf::Kernel::kZgemm, perf::cost::zgemm(m, n, k));
}

void zgemm(Complex alpha, const ZMatrix& a, const ZMatrix& b, Complex beta,
           ZMatrix& c) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  WLSMS_EXPECTS(b.rows() == k);
  WLSMS_EXPECTS(c.rows() == m && c.cols() == n);
  zgemm_view(m, n, k, alpha, a.data(), m, b.data(), k, beta, c.data(), m);
}

ZMatrix multiply(const ZMatrix& a, const ZMatrix& b) {
  ZMatrix c(a.rows(), b.cols());
  zgemm(Complex{1.0, 0.0}, a, b, Complex{0.0, 0.0}, c);
  return c;
}

}  // namespace wlsms::linalg
