#pragma once

/// \file kkr.hpp
/// Real-space KKR matrix assembly over a local interaction zone and the
/// extraction of the central-atom scattering-path block.
///
/// For atom i with LIZ atoms {0 = i, 1..L} the real-space KKR matrix at
/// complex energy z is, in site (x) spin space,
///
///   M(z) = t(z)^-1 - G0(z) ,
///
/// with site-diagonal 2x2 blocks t_j(e_j, z)^-1 and site-off-diagonal blocks
/// -g0(r_jk; z) * 1_spin (the s-wave free propagator; spin is conserved in
/// propagation, all spin dependence lives in the t-matrices). The
/// scattering-path operator of the zone is tau(z) = M(z)^-1, and the atom's
/// local electronic structure needs only the central 2x2 block tau_00(z) --
/// this is LSMS's "local sub-block of the inverse of the real space KKR
/// matrix" whose evaluation dominates the paper's runtime (§II-B).
///
/// Two evaluation paths are provided:
///  - `central_tau_block`: factorize the full zone matrix (center ordered
///    first) and solve for the two central columns. Reference path.
///  - `central_tau_schur`: order the center *last* and eliminate the
///    member block A by blocked LU, so tau_00 = (D - C A^{-1} B)^{-1} --
///    the Schur complement of the member block. The elimination is the
///    GEMM-rich blocked factorization and the full back-substitution for
///    zone columns is skipped entirely; only geometry-independent 2x2
///    algebra remains. This is the production hot path.

#include <cstddef>
#include <vector>

#include "lattice/structure.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "lsms/scattering.hpp"
#include "spin/moments.hpp"

namespace wlsms::lsms {

/// The geometry of one atom's local interaction zone: the central site plus
/// every structure site (or periodic image) within the LIZ radius.
struct LizGeometry {
  std::size_t center = 0;                  ///< central site index
  std::vector<lattice::Neighbor> members;  ///< all other LIZ atoms
  /// Total number of atoms in the zone, center included.
  std::size_t zone_size() const { return members.size() + 1; }
};

/// Builds the LIZ of `site` with radius `liz_radius` (a0).
LizGeometry build_liz(const lattice::Structure& structure, std::size_t site,
                      double liz_radius);

/// Canonical cache key for a LIZ geometry: the sorted, quantized displacement
/// list. Two atoms with congruent zones (every atom of a perfect periodic
/// crystal) share propagator matrices through this key.
std::vector<std::int64_t> geometry_key(const LizGeometry& liz);

/// Scalar (spin-independent) propagator matrix of a zone at one energy:
/// P[j][k] = g0(|r_j - r_k|; z) for j != k, 0 on the diagonal, with index 0
/// the central atom. Depends on geometry and z only, so it is precomputed
/// once per distinct geometry and reused for every moment configuration.
linalg::ZMatrix scalar_propagator_matrix(const LizGeometry& liz,
                                         Complex z);

/// Assembles the full KKR matrix M(z) = t^-1 - G0 of the zone
/// (2 * zone_size square). `directions` supplies the moment direction of
/// every *structure* site; LIZ members look theirs up via Neighbor::site.
linalg::ZMatrix assemble_kkr_matrix(const Scatterer& scatterer,
                                    const LizGeometry& liz,
                                    const spin::MomentConfiguration& moments,
                                    Complex z,
                                    const linalg::ZMatrix& scalar_propagator);

/// Central 2x2 block of M^-1, computed by factorizing M once and solving for
/// the two central columns (not by forming the full inverse). Reference.
spin::Spin2x2 central_tau_block(const linalg::ZMatrix& kkr);

/// Configuration-independent blocks of the center-last zone matrix
///
///   M' = [ A  B ]    A: 2L x 2L member-member,  B: 2L x 2 member-center,
///        [ C  D ]    C: 2 x 2L center-member,   D: 2 x 2 center t^-1,
///
/// with only the site-diagonal 2x2 t^-1 blocks of A and all of D depending
/// on the moments. `a0`/`b0`/`c0` hold the -strength * g0 hopping terms
/// (diagonal blocks of a0 zero); one instance per distinct geometry per
/// contour point, shared between congruent zones and reused by every
/// energy evaluation.
struct SchurTemplates {
  linalg::ZMatrix a0;  ///< 2L x 2L member block, t^-1 diagonals left zero
  linalg::ZMatrix b0;  ///< 2L x 2 member-center coupling
  linalg::ZMatrix c0;  ///< 2 x 2L center-member coupling
};

/// Builds the hopping templates of a zone from its scalar propagator matrix
/// (index 0 = center) and the calibrated hybridization strength.
SchurTemplates make_schur_templates(const linalg::ZMatrix& scalar_propagator,
                                    double strength);

/// Reusable workspace for central_tau_schur: the member matrix the blocked
/// LU destroys, the B panel the solve overwrites, and the pivot sequence.
/// Sized on first use per zone order and reused across contour points and
/// energy evaluations (one instance per thread), so the hot path performs
/// no allocation in steady state.
struct SchurWorkspace {
  linalg::ZMatrix a;
  linalg::ZMatrix bx;
  std::vector<std::size_t> pivots;
};

/// Central 2x2 block of the zone's M^-1 via block elimination of the member
/// block: tau_00 = (D - C A^{-1} B)^{-1}. `member_t_inverse[j]` is the
/// inverse t-matrix of LIZ member j (zone order), `center_t_inverse` that
/// of the central atom (= D). Agrees with central_tau_block to roundoff;
/// the member elimination runs the blocked, GEMM-dominated LU.
spin::Spin2x2 central_tau_schur(const SchurTemplates& templates,
                                const spin::Spin2x2& center_t_inverse,
                                const spin::Spin2x2* member_t_inverse,
                                SchurWorkspace& workspace);

}  // namespace wlsms::lsms
