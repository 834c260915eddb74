#include "linalg/blas.hpp"

#include <algorithm>
#include <vector>

#include "perf/flops.hpp"

namespace wlsms::linalg {

namespace {

// ---------------------------------------------------------------------------
// Blocking parameters.
//
// The LIZ matrices the solver produces are ~30-300 square, so one K block
// (kKC) and one M block (kMC) usually cover the whole matrix; the loop
// structure still handles arbitrary sizes. A packed A block is
// kMC x kKC x 2 planes x 8 B = 384 KiB and a packed B block at n = 256 is
// 768 KiB, sized for present-day L2/L3.
constexpr std::size_t kMC = 128;
constexpr std::size_t kKC = 192;
constexpr std::size_t kNC = 512;

constexpr std::size_t kMR = kGemmMR;
constexpr std::size_t kNR = kGemmNR;

// Products below this flop count skip packing entirely; the tiled naive
// kernel wins on tiny shapes (the 2 x k x 2 Schur products, GEMV-like
// slivers).
constexpr std::size_t kPackThresholdFlops = 16 * 1024;

// ---------------------------------------------------------------------------
// Packing. A and B panels are deinterleaved into separate real and
// imaginary planes so the microkernel is pure real FMA arithmetic (four
// real products per complex product), which auto-vectorizes cleanly.
//
// A (mc x kc slice, column-major, lda): packed as ceil(mc/MR) row panels;
// within a panel the layout is k-major, ap[(k*MR + i)], zero-padded to MR.
// B (kc x nc slice, column-major, ldb): packed as ceil(nc/NR) column
// panels, k-major, bp[(k*NR + j)], zero-padded to NR.

void pack_a(std::size_t mc, std::size_t kc, const Complex* a, std::size_t lda,
            double* ar, double* ai) {
  for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
    const std::size_t mr = std::min(kMR, mc - i0);
    double* pr = ar + i0 * kc;
    double* pi = ai + i0 * kc;
    for (std::size_t k = 0; k < kc; ++k) {
      const Complex* col = a + k * lda + i0;
      std::size_t i = 0;
      for (; i < mr; ++i) {
        pr[k * kMR + i] = col[i].real();
        pi[k * kMR + i] = col[i].imag();
      }
      for (; i < kMR; ++i) {
        pr[k * kMR + i] = 0.0;
        pi[k * kMR + i] = 0.0;
      }
    }
  }
}

void pack_b(std::size_t kc, std::size_t nc, const Complex* b, std::size_t ldb,
            double* br, double* bi) {
  for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
    const std::size_t nr = std::min(kNR, nc - j0);
    double* pr = br + j0 * kc;
    double* pi = bi + j0 * kc;
    for (std::size_t k = 0; k < kc; ++k) {
      std::size_t j = 0;
      for (; j < nr; ++j) {
        const Complex v = b[(j0 + j) * ldb + k];
        pr[k * kNR + j] = v.real();
        pi[k * kNR + j] = v.imag();
      }
      for (; j < kNR; ++j) {
        pr[k * kNR + j] = 0.0;
        pi[k * kNR + j] = 0.0;
      }
    }
  }
}

// MR x NR register tile accumulated over a full K block, writing the
// result into the accr/acci scratch tiles ([j * kMR + i] layout).
//
// The production variant uses GCC/Clang vector extensions with the vector
// width pinned to the ISA instead of relying on the auto-vectorizer (which
// loses the pattern once the kernel is inlined into the panel sweep). Each
// complex product is four independent real FMA streams: the four partial
// sums (ar*br, ai*bi, ar*bi, ai*br) accumulate separately and combine only
// at writeback, so every FMA starts a fresh dependency chain and the tile
// sustains the FMA ports instead of waiting on add latency. With AVX-512
// the 8x4 tile needs 16 of the 32 vector registers for accumulators.
#if defined(__GNUC__) && (defined(__AVX512F__) || defined(__AVX2__))

#if defined(__AVX512F__)
constexpr std::size_t kVec = 8;  // doubles per vector register
#else
constexpr std::size_t kVec = 4;
#endif
static_assert(kMR % kVec == 0, "MR must be a whole number of vectors");
constexpr std::size_t kMV = kMR / kVec;
typedef double Vd __attribute__((vector_size(kVec * sizeof(double))));

inline Vd load_vd(const double* p) {
  Vd v;
  __builtin_memcpy(&v, p, sizeof(Vd));
  return v;
}

// Forced inline: called out of line from the panel sweep, the kernel runs
// measurably slower (about 9 % at order 130 on AVX-512).
[[gnu::always_inline]] inline void micro_kernel(
    std::size_t kc, const double* __restrict ar, const double* __restrict ai,
    const double* __restrict br, const double* __restrict bi,
    double* __restrict accr, double* __restrict acci) {
  Vd crp[kNR][kMV] = {}, crm[kNR][kMV] = {};
  Vd cip[kNR][kMV] = {}, cim[kNR][kMV] = {};
  for (std::size_t k = 0; k < kc; ++k) {
    Vd arv[kMV], aiv[kMV];
    for (std::size_t v = 0; v < kMV; ++v) {
      arv[v] = load_vd(ar + k * kMR + v * kVec);
      aiv[v] = load_vd(ai + k * kMR + v * kVec);
    }
    for (std::size_t j = 0; j < kNR; ++j) {
      const double brj = br[k * kNR + j];
      const double bij = bi[k * kNR + j];
      for (std::size_t v = 0; v < kMV; ++v) {
        crp[j][v] += arv[v] * brj;
        crm[j][v] += aiv[v] * bij;
        cip[j][v] += arv[v] * bij;
        cim[j][v] += aiv[v] * brj;
      }
    }
  }
  for (std::size_t j = 0; j < kNR; ++j)
    for (std::size_t v = 0; v < kMV; ++v) {
      const Vd cr = crp[j][v] - crm[j][v];
      const Vd ci = cip[j][v] + cim[j][v];
      __builtin_memcpy(accr + j * kMR + v * kVec, &cr, sizeof(Vd));
      __builtin_memcpy(acci + j * kMR + v * kVec, &ci, sizeof(Vd));
    }
}

#else  // portable scalar fallback

void micro_kernel(std::size_t kc, const double* __restrict ar,
                  const double* __restrict ai, const double* __restrict br,
                  const double* __restrict bi, double* __restrict accr,
                  double* __restrict acci) {
  double cr[kNR][kMR] = {};
  double ci[kNR][kMR] = {};
  for (std::size_t k = 0; k < kc; ++k) {
    const double* __restrict a_r = ar + k * kMR;
    const double* __restrict a_i = ai + k * kMR;
    const double* __restrict b_r = br + k * kNR;
    const double* __restrict b_i = bi + k * kNR;
    for (std::size_t j = 0; j < kNR; ++j) {
      const double brj = b_r[j];
      const double bij = b_i[j];
      for (std::size_t i = 0; i < kMR; ++i) {
        cr[j][i] += a_r[i] * brj - a_i[i] * bij;
        ci[j][i] += a_r[i] * bij + a_i[i] * brj;
      }
    }
  }
  for (std::size_t j = 0; j < kNR; ++j)
    for (std::size_t i = 0; i < kMR; ++i) {
      accr[j * kMR + i] = cr[j][i];
      acci[j * kMR + i] = ci[j][i];
    }
}

#endif

// Writes one micro tile into C: C(i0.., j0..) += alpha * (accr + i*acci).
void write_tile(std::size_t mr, std::size_t nr, Complex alpha,
                const double* accr, const double* acci, Complex* c,
                std::size_t ldc) {
  const double alr = alpha.real();
  const double ali = alpha.imag();
  for (std::size_t j = 0; j < nr; ++j) {
    Complex* cj = c + j * ldc;
    for (std::size_t i = 0; i < mr; ++i) {
      const double tr = accr[j * kMR + i];
      const double ti = acci[j * kMR + i];
      cj[i] += Complex{alr * tr - ali * ti, alr * ti + ali * tr};
    }
  }
}

// Per-thread packing buffers, grown on demand and reused across calls so
// the hot path performs no allocation in steady state.
struct PackBuffers {
  std::vector<double> ar, ai, br, bi;
  void reserve_a(std::size_t n) {
    if (ar.size() < n) {
      ar.resize(n);
      ai.resize(n);
    }
  }
  void reserve_b(std::size_t n) {
    if (br.size() < n) {
      br.resize(n);
      bi.resize(n);
    }
  }
};

thread_local PackBuffers tl_buffers;

// Computes the packed product for the m rows of the current (pc, jc)
// block: packs A slices into this thread's buffer and sweeps the
// microkernel over them. B is already packed by the caller.
void gemm_rows(std::size_t m, std::size_t kc, std::size_t nc, Complex alpha,
               const Complex* a, std::size_t lda, const double* br,
               const double* bi, Complex* c, std::size_t ldc) {
  PackBuffers& buf = tl_buffers;
  for (std::size_t ic = 0; ic < m; ic += kMC) {
    const std::size_t mc = std::min(kMC, m - ic);
    const std::size_t mc_padded = (mc + kMR - 1) / kMR * kMR;
    buf.reserve_a(mc_padded * kc);
    pack_a(mc, kc, a + ic, lda, buf.ar.data(), buf.ai.data());
    double accr[kMR * kNR];
    double acci[kMR * kNR];
    for (std::size_t jr = 0; jr < nc; jr += kNR) {
      const std::size_t nr = std::min(kNR, nc - jr);
      const double* bpr = br + jr * kc;
      const double* bpi = bi + jr * kc;
      for (std::size_t ir = 0; ir < mc; ir += kMR) {
        const std::size_t mr = std::min(kMR, mc - ir);
        micro_kernel(kc, buf.ar.data() + ir * kc, buf.ai.data() + ir * kc,
                     bpr, bpi, accr, acci);
        write_tile(mr, nr, alpha, accr, acci, c + jr * ldc + ic + ir, ldc);
      }
    }
  }
}

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

// The original cache-tiled j-k-i kernel, operating on views.
void gemm_naive_view(std::size_t m, std::size_t n, std::size_t k,
                     Complex alpha, const Complex* a, std::size_t lda,
                     const Complex* b, std::size_t ldb, Complex* c,
                     std::size_t ldc) {
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
}

void gemm_packed_view(std::size_t m, std::size_t n, std::size_t k,
                      Complex alpha, const Complex* a, std::size_t lda,
                      const Complex* b, std::size_t ldb, Complex* c,
                      std::size_t ldc) {
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    const std::size_t nc_padded = (nc + kNR - 1) / kNR * kNR;
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      PackBuffers& buf = tl_buffers;
      buf.reserve_b(nc_padded * kc);
      pack_b(kc, nc, b + jc * ldb + pc, ldb, buf.br.data(), buf.bi.data());
      gemm_rows(m, kc, nc, alpha, a + pc * lda, lda, buf.br.data(),
                buf.bi.data(), c + jc * ldc, ldc);
    }
  }
}

}  // namespace

void zgemm_view(std::size_t m, std::size_t n, std::size_t k, Complex alpha,
                const Complex* a, std::size_t lda, const Complex* b,
                std::size_t ldb, Complex beta, Complex* c, std::size_t ldc) {
  scale_c(m, n, beta, c, ldc);
  if (m != 0 && n != 0 && k != 0 && alpha != Complex{0.0, 0.0}) {
    if (8 * m * n * k < kPackThresholdFlops)
      gemm_naive_view(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    else
      gemm_packed_view(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    // Booked only when the multiply runs, so alpha == 0 quick returns do
    // not inflate the instrumented counter (or the GEMM fraction).
    perf::add_flops(perf::Kernel::kZgemm, perf::cost::zgemm(m, n, k));
  }
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

void zgemm_naive(Complex alpha, const ZMatrix& a, const ZMatrix& b,
                 Complex beta, ZMatrix& c) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  WLSMS_EXPECTS(b.rows() == k);
  WLSMS_EXPECTS(c.rows() == m && c.cols() == n);
  scale_c(m, n, beta, c.data(), m);
  if (m != 0 && n != 0 && k != 0 && alpha != Complex{0.0, 0.0}) {
    gemm_naive_view(m, n, k, alpha, a.data(), m, b.data(), k, c.data(), m);
    perf::add_flops(perf::Kernel::kZgemm, perf::cost::zgemm(m, n, k));
  }
}

ZMatrix multiply(const ZMatrix& a, const ZMatrix& b) {
  ZMatrix c(a.rows(), b.cols());
  zgemm(Complex{1.0, 0.0}, a, b, Complex{0.0, 0.0}, c);
  return c;
}

void zgemv(Complex alpha, const ZMatrix& a, const Complex* x, Complex beta,
           Complex* y) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (beta == Complex{0.0, 0.0})
    std::fill_n(y, m, Complex{0.0, 0.0});
  else if (beta != Complex{1.0, 0.0})
    for (std::size_t i = 0; i < m; ++i) y[i] *= beta;
  for (std::size_t j = 0; j < n; ++j) {
    const Complex factor = alpha * x[j];
    const Complex* aj = a.col(j);
    for (std::size_t i = 0; i < m; ++i) y[i] += factor * aj[i];
  }
  perf::add_flops(perf::Kernel::kOther, perf::cost::zgemm(m, 1, n));
}

}  // namespace wlsms::linalg
