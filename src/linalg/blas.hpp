#pragma once

/// \file blas.hpp
/// Hand-rolled complex BLAS-3/2 kernels with flop accounting.
///
/// The paper attributes LSMS's high sustained fraction of peak to ZGEMM
/// (§II-B); this reproduction implements ZGEMM from scratch and instruments
/// it so the Table II harness can report sustained Flop/s (and the fraction
/// of flops in ZGEMM) the same way PAPI did.
///
/// Two implementations are provided:
///  - `zgemm` / `zgemm_view`: the production path. A/B panels are packed
///    into split real/imaginary planes (so the microkernel is four real
///    FMA streams the compiler vectorizes cleanly), and the inner kernel is
///    a register-blocked MR x NR tile accumulated over the full K block.
///    Every call is serial on the calling thread; the solver parallelizes
///    above it, over independent zone solves (OpenMP).
///  - `zgemm_naive`: the original cache-tiled j-k-i loop, kept as the
///    conformance/benchmark reference.

#include "linalg/matrix.hpp"

namespace wlsms::linalg {

/// Packed-panel microkernel tile sizes (rows x cols of C held in
/// registers). Exposed so tests can cover the non-multiple-of-tile edge
/// cases deliberately.
inline constexpr std::size_t kGemmMR = 8;
inline constexpr std::size_t kGemmNR = 4;

/// C = beta*C + alpha * A * B (no transposes; shapes must conform).
/// beta == 0 overwrites C without reading it (BLAS semantics: NaN/Inf in
/// the output buffer do not propagate).
void zgemm(Complex alpha, const ZMatrix& a, const ZMatrix& b, Complex beta,
           ZMatrix& c);

/// Reference implementation (cache-tiled triple loop, no packing). Same
/// contract as zgemm; used for conformance tests and as the naive side of
/// the kernel benchmarks. Small products inside zgemm fall through to this.
void zgemm_naive(Complex alpha, const ZMatrix& a, const ZMatrix& b,
                 Complex beta, ZMatrix& c);

/// Raw column-major GEMM on sub-matrix views:
/// C (m x n, leading dimension ldc) = beta*C + alpha * A (m x k, lda) *
/// B (k x n, ldb). This is the seam the blocked LU's trailing update and
/// the Schur-complement solve use, and the seam a future accelerator
/// backend slots into.
void zgemm_view(std::size_t m, std::size_t n, std::size_t k, Complex alpha,
                const Complex* a, std::size_t lda, const Complex* b,
                std::size_t ldb, Complex beta, Complex* c, std::size_t ldc);

/// Convenience: returns A * B.
ZMatrix multiply(const ZMatrix& a, const ZMatrix& b);

/// y = beta*y + alpha * A * x with x, y dense vectors (y.size == A.rows).
/// beta == 0 overwrites y without reading it.
void zgemv(Complex alpha, const ZMatrix& a, const Complex* x, Complex beta,
           Complex* y);

}  // namespace wlsms::linalg
