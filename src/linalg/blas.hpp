#pragma once

/// \file blas.hpp
/// The plain complex matrix product on interleaved matrices, with flop
/// accounting.
///
/// The paper attributes LSMS's high sustained fraction of peak to ZGEMM
/// (§II-B). Here every solver flop runs in the split-plane kernels of
/// linalg/split.hpp, whose trailing-update register tile is the one tuned
/// product (split_getrf, spin_block_solve). This file is its plain
/// reference: a cache-tiled j-k-i loop on the interleaved ZMatrix, which
/// the tests reconstruct and check with. Every call is serial on the calling
/// thread and books its flops under perf::Kernel::kZgemm.

#include "linalg/matrix.hpp"

namespace wlsms::linalg {

/// C = beta*C + alpha * A * B (no transposes; shapes must conform).
/// beta == 0 overwrites C without reading it (BLAS semantics: NaN/Inf in
/// the output buffer do not propagate).
void zgemm(Complex alpha, const ZMatrix& a, const ZMatrix& b, Complex beta,
           ZMatrix& c);

/// Raw column-major GEMM on sub-matrix views, same contract as zgemm:
/// C (m x n, leading dimension ldc) = beta*C + alpha * A (m x k, lda) *
/// B (k x n, ldb). The zone solve does not go through it: the split-plane
/// kernels run their own trailing-update tile (linalg/split.hpp, whose
/// spin_block_solve is the seam an accelerator backend would intercept).
void zgemm_view(std::size_t m, std::size_t n, std::size_t k, Complex alpha,
                const Complex* a, std::size_t lda, const Complex* b,
                std::size_t ldb, Complex beta, Complex* c, std::size_t ldc);

/// Convenience: returns A * B.
ZMatrix multiply(const ZMatrix& a, const ZMatrix& b);

}  // namespace wlsms::linalg
