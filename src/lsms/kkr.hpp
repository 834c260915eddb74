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
///    first) with the unblocked reference LU (linalg/lu.hpp) and solve for
///    the two central columns. Reference path: it shares no kernel with
///    the production path below.
///  - `central_tau_schur`: order the center *last* and eliminate the
///    member block A, so tau_00 = (D - C A^{-1} B)^{-1} -- the Schur
///    complement of the member block. Propagation conserves spin and the
///    t^-1 blocks are site-diagonal, so in spin-major order A is
///    [[K + T_uu, T_ud], [T_du, K + T_dd]] with one L x L hopping matrix K
///    and diagonal T blocks. The elimination is one call of
///    linalg::spin_block_solve: the LDL^T of the complex symmetric spin-up
///    block F = K + T_uu, F^-1 from it, the LU of its Schur complement, and
///    O(L^2) vector work -- 5/16 of the flops of one LU of order 2L. This
///    is the production hot path.
///
/// LIZ members are listed in one canonical order, ascending quantized
/// displacement (the order geometry_key lists them in), so every zone that
/// shares a key also shares the member order its templates were built in.

#include <cstddef>
#include <vector>

#include "lattice/structure.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/split.hpp"
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

/// Builds the LIZ of `site` with radius `liz_radius` (a0), members in the
/// canonical order: ascending quantized displacement.
LizGeometry build_liz(const lattice::Structure& structure, std::size_t site,
                      double liz_radius);

/// Cache key for a LIZ geometry: the quantized displacements in member
/// order. Two atoms with congruent zones (every atom of a perfect periodic
/// crystal) get the same key and list the same displacement at every member
/// index, so they share propagator matrices through it.
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
/// on the moments. Hopping conserves spin, so each spin channel of A, B and
/// C repeats one spin-free block: `k` (L x L, -strength * g0(r_jk), zero
/// diagonal), `b` (L x 1, member-center) and `c` (L x 1, center-member), as
/// split real/imaginary planes, the layout linalg::spin_block_solve reads.
/// One instance per distinct geometry per contour point, shared between
/// congruent zones and reused by every energy evaluation.
struct SchurTemplates {
  linalg::SplitMatrix k;  ///< L x L member hopping, zero diagonal
  linalg::SplitMatrix b;  ///< L x 1 member-center coupling
  linalg::SplitMatrix c;  ///< L x 1 center-member coupling
};

/// Builds the hopping templates of a zone from its scalar propagator matrix
/// (index 0 = center) and the calibrated hybridization strength.
SchurTemplates make_schur_templates(const linalg::ZMatrix& scalar_propagator,
                                    double strength);

/// Reusable workspace for central_tau_schur: the kernel's matrices, vectors
/// and pivots, sized on first use per zone order and reused across contour
/// points and energy evaluations (one instance per thread), so the hot path
/// performs no allocation in steady state.
using SchurWorkspace = linalg::SpinBlockWorkspace;

/// Central 2x2 block of the zone's M^-1 via block elimination of the member
/// block: tau_00 = (D - C A^{-1} B)^{-1}. `member_t_inverse[j]` is the
/// inverse t-matrix of LIZ member j (zone order), `center_t_inverse` that
/// of the central atom (= D). Agrees with central_tau_block to roundoff;
/// the member elimination is linalg::spin_block_solve.
spin::Spin2x2 central_tau_schur(const SchurTemplates& templates,
                                const spin::Spin2x2& center_t_inverse,
                                const spin::Spin2x2* member_t_inverse,
                                SchurWorkspace& workspace);

}  // namespace wlsms::lsms
