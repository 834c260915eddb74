#pragma once

/// \file simd.hpp
/// The one ISA selection of the split-plane kernels (linalg/split.cpp;
/// private to wlsms_linalg, and to the FMA peak bench that measures them,
/// bench/peak_fma.cpp, compiled with the library's flags).
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

// The lane picks of one transpose stage: rows r and r + B (bit B of r
// clear) trade their blocks of B lanes, the low half going to row r.
template <std::size_t B, bool kHigh, std::size_t... L>
constexpr Vi stage_mask(std::index_sequence<L...>) {
  return Vi{static_cast<std::int64_t>(
      (L & B) != 0 ? (kHigh ? L + kVec : L - B + kVec)
                   : (kHigh ? L + B : L))...};
}

template <std::size_t B>
inline void transpose_stage(Vd* v) {
  constexpr Vi lo = stage_mask<B, false>(std::make_index_sequence<kVec>{});
  constexpr Vi hi = stage_mask<B, true>(std::make_index_sequence<kVec>{});
  for (std::size_t r = 0; r < kVec; ++r)
    if ((r & B) == 0) {
      const Vd a = v[r];
      const Vd b = v[r + B];
      v[r] = __builtin_shuffle(a, b, lo);
      v[r + B] = __builtin_shuffle(a, b, hi);
    }
}

/// Transposes the kVec x kVec block held as the vectors v[0 .. kVec):
/// afterwards v[i] holds lane i of every former vector, in order.
inline void transpose(Vd* v) {
  transpose_stage<1>(v);
  transpose_stage<2>(v);
  if constexpr (kVec == 8) transpose_stage<4>(v);
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

inline void transpose(Vd*) {}  // a 1 x 1 block

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
