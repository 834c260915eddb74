#pragma once

/// \file peak_fma.hpp
/// The one-thread floating-point peak of the split-plane kernels' vector
/// type (linalg/simd.hpp), for bench_micro_linalg's BM_PeakFma.

#include <cstdint>

namespace wlsms::bench {

/// Runs `steps` rounds of independent register-only multiply-add chains on
/// the kernels' vector type and returns the flops retired (2 per lane per
/// multiply-add). `sink` receives a sum of the chains so the work is kept.
std::uint64_t fma_chains(std::uint64_t steps, double& sink);

}  // namespace wlsms::bench
