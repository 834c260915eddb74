#pragma once

/// \file moments.hpp
/// Magnetic moment configurations: the classical collective variables the
/// Wang-Landau walk moves through. Each atom carries a unit vector e_i, the
/// direction its frozen-potential exchange field is rotated to (paper
/// §II-B/Fig. 2); the moment magnitude is fixed by the ferromagnetic
/// reference potential.

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "common/vec3.hpp"

namespace wlsms::spin {

/// The one rule a moment direction must pass, in the in-process builders
/// and the wire decoders alike: a finite, nonzero squared norm — no zero
/// vector and no NaN or ±inf component, any of which makes the solver's
/// energy NaN.
inline bool is_valid_direction(const Vec3& direction) {
  const double norm2 = direction.norm2();
  return std::isfinite(norm2) && norm2 > 0.0;
}

/// A set of N unit-vector moment directions {e_i}.
class MomentConfiguration {
 public:
  MomentConfiguration() = default;

  /// All moments along +z: the ferromagnetic reference state.
  static MomentConfiguration ferromagnetic(std::size_t n);

  /// Independent uniform directions on the sphere (infinite-temperature
  /// state); the usual WL starting point.
  static MomentConfiguration random(std::size_t n, Rng& rng);

  /// Checkerboard +z/-z according to `sublattice` (one entry per atom,
  /// false = up). For bcc cells this realizes the B2 antiferromagnetic
  /// arrangement the paper uses as the top of the energy range.
  static MomentConfiguration staggered(const std::vector<bool>& sublattice);

  /// From explicit directions (normalized on ingestion). Every direction
  /// must pass is_valid_direction, as in from_raw_directions and set.
  static MomentConfiguration from_directions(std::vector<Vec3> directions);

  /// From directions that are already unit vectors, taken bit-for-bit with
  /// NO renormalization. Deserialization must use this: normalization is
  /// not bitwise idempotent, and both the checkpoint and the comm wire
  /// format promise that a configuration survives a round trip unchanged
  /// to the last ulp.
  static MomentConfiguration from_raw_directions(std::vector<Vec3> directions);

  std::size_t size() const { return directions_.size(); }
  const Vec3& operator[](std::size_t i) const { return directions_[i]; }
  const std::vector<Vec3>& directions() const { return directions_; }

  /// Replaces moment i (normalizes the input).
  void set(std::size_t i, const Vec3& direction);

  /// Total moment vector Sum_i e_i.
  Vec3 total_moment() const;

  /// Magnetization per site |Sum_i e_i| / N in [0, 1].
  double magnetization() const;

  /// z-component of the total moment per site, in [-1, 1]. This is the
  /// second collective variable of the joint DOS g(E, M_z) used for
  /// switching-barrier studies (paper ref [14]).
  double magnetization_z() const;

 private:
  std::vector<Vec3> directions_;
};

}  // namespace wlsms::spin
