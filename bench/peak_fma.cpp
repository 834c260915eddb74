// Compiled with wlsms_linalg's own options (bench/CMakeLists.txt), so the
// chains use the vector width and FMA contraction the split-plane kernels
// get: AVX-512 or AVX2 FMAs on a native build, scalar multiply-adds under
// the `portable` preset.
#include "peak_fma.hpp"

#include <cstddef>

#include "linalg/simd.hpp"

namespace wlsms::bench {

std::uint64_t fma_chains(std::uint64_t steps, double& sink) {
  using linalg::simd::broadcast;
  using linalg::simd::kVec;
  using linalg::simd::Vd;
  // Twelve chains cover the FMA latency of two pipes and, with the two
  // constants, fit in 16 vector registers.
  constexpr std::size_t kChains = 12;
  Vd acc[kChains];
  for (std::size_t i = 0; i < kChains; ++i)
    acc[i] = broadcast(1.0 + 1e-3 * static_cast<double>(i));
  const Vd scale = broadcast(1.0 - 1e-9);
  const Vd shift = broadcast(1e-9);
  for (std::uint64_t s = 0; s < steps; ++s)
    for (std::size_t i = 0; i < kChains; ++i) acc[i] = acc[i] * scale + shift;
  double total = 0.0;
  for (std::size_t i = 0; i < kChains; ++i)
    for (std::size_t l = 0; l < kVec; ++l)
      total += linalg::simd::lane(acc[i], l);
  sink = total;
  return steps * kChains * kVec * 2;
}

}  // namespace wlsms::bench
