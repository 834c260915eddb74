#pragma once

/// \file simd.hpp
/// The one ISA selection of the split-plane kernels (linalg/split.cpp;
/// private to wlsms_linalg).
///
/// `Vd` is a vector of `kVec` doubles: a GCC/Clang vector-extension type of
/// 8 lanes under AVX-512 and 4 under AVX2, and plain `double` (kVec = 1)
/// everywhere else. The kernels are written once against `Vd` and the
/// helpers below; on the scalar fallback the same source compiles to scalar
/// code.
/// Arithmetic (`+ - *`, comparisons, `cond ? a : b`) works on both spellings;
/// the library's -ffp-contract=fast turns `c - a * b` into one FMA.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace wlsms::linalg::simd {

#if defined(__GNUC__) && (defined(__AVX512F__) || defined(__AVX2__))

#if defined(__AVX512F__)
inline constexpr std::size_t kVec = 8;  // doubles per vector register
#else
inline constexpr std::size_t kVec = 4;
#endif
typedef double Vd __attribute__((vector_size(kVec * sizeof(double))));
typedef std::int64_t Vi __attribute__((vector_size(kVec * sizeof(double))));

/// Lane i of v.
inline double lane(Vd v, std::size_t i) { return v[i]; }

template <std::size_t... I>
inline Vd splat_lanes(double x, std::index_sequence<I...>) {
  return Vd{(static_cast<void>(I), x)...};
}
template <std::size_t... I>
inline Vd iota_lanes(double first, std::index_sequence<I...>) {
  return Vd{(first + static_cast<double>(I))...};
}

/// Every lane = x.
inline Vd broadcast(double x) {
  return splat_lanes(x, std::make_index_sequence<kVec>{});
}

/// |v| per lane: clears the sign bits.
inline Vd abs(Vd v) {
  Vi bits;
  std::memcpy(&bits, &v, sizeof(Vd));
  bits &= static_cast<std::int64_t>(~(std::uint64_t{1} << 63));
  std::memcpy(&v, &bits, sizeof(Vd));
  return v;
}

/// Every lane = lane I of v (a register permute, no memory round trip).
template <std::size_t I>
inline Vd splat(Vd v) {
  return broadcast(v[I]);
}

/// Row numbers first, first + 1, ... of one vector, as doubles.
inline Vd iota(std::size_t first) {
  return iota_lanes(static_cast<double>(first),
                    std::make_index_sequence<kVec>{});
}

#else  // portable scalar fallback

inline constexpr std::size_t kVec = 1;
using Vd = double;

inline double lane(Vd v, std::size_t) { return v; }
inline Vd broadcast(double x) { return x; }
inline Vd abs(Vd v) { return std::fabs(v); }

template <std::size_t>
inline Vd splat(Vd v) {
  return v;
}

inline Vd iota(std::size_t first) { return static_cast<double>(first); }

#endif

/// v with lanes 0..I zeroed (I a compile-time lane index).
template <std::size_t I>
inline Vd zero_through(Vd v) {
  return iota(0) > broadcast(static_cast<double>(I)) ? v : Vd{};
}

/// v with lanes I..kVec-1 zeroed.
template <std::size_t I>
inline Vd zero_from(Vd v) {
  return iota(0) < broadcast(static_cast<double>(I)) ? v : Vd{};
}

/// Unaligned load / store of one vector.
inline Vd load(const double* p) {
  Vd v;
  std::memcpy(&v, p, sizeof(Vd));
  return v;
}
inline void store(double* p, Vd v) { std::memcpy(p, &v, sizeof(Vd)); }

}  // namespace wlsms::linalg::simd
