// Tests for LIZ construction and KKR matrix assembly.
#include "lsms/kkr.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "lattice/cluster.hpp"
#include "lsms/contour.hpp"
#include "lsms/fe_parameters.hpp"
#include "perf/flops.hpp"

namespace wlsms::lsms {
namespace {

lattice::Structure fe16() { return lattice::make_fe_supercell(2); }

TEST(Liz, PaperRadiusGives65Atoms) {
  const LizGeometry liz = build_liz(fe16(), 0, units::fe_liz_radius_a0);
  EXPECT_EQ(liz.zone_size(), 65u);
}

TEST(Liz, GeometryKeySharedAcrossEquivalentSites) {
  const lattice::Structure cell = fe16();
  const auto key0 = geometry_key(build_liz(cell, 0, 5.6));
  for (std::size_t i = 1; i < cell.size(); ++i)
    EXPECT_EQ(geometry_key(build_liz(cell, i, 5.6)), key0);
}

TEST(Liz, GeometryKeyDiffersAtSurface) {
  // In a finite cluster, centre and surface atoms have different zones.
  const auto cluster = lattice::make_spherical_cluster(
      lattice::CubicLattice::kBcc, units::fe_lattice_parameter_a0, 9.0);
  std::size_t center = 0;
  std::size_t outermost = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.position(i).norm() < cluster.position(center).norm())
      center = i;
    if (cluster.position(i).norm() > cluster.position(outermost).norm())
      outermost = i;
  }
  EXPECT_NE(geometry_key(build_liz(cluster, center, 5.6)),
            geometry_key(build_liz(cluster, outermost, 5.6)));
}

TEST(Propagator, IsSymmetricWithZeroDiagonal) {
  const LizGeometry liz = build_liz(fe16(), 3, 5.6);
  const Complex z{0.3, 0.1};
  const linalg::ZMatrix p = scalar_propagator_matrix(liz, z);
  const std::size_t n = liz.zone_size();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(p(i, i), (Complex{0.0, 0.0}));
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_NEAR(std::abs(p(i, j) - p(j, i)), 0.0, 1e-14);
  }
}

TEST(Propagator, FirstRowMatchesFreePropagator) {
  const LizGeometry liz = build_liz(fe16(), 0, 5.6);
  const Complex z{0.32, 0.05};
  const linalg::ZMatrix p = scalar_propagator_matrix(liz, z);
  for (std::size_t j = 0; j < liz.members.size(); ++j) {
    const Complex expected =
        free_propagator(liz.members[j].distance, z);
    EXPECT_NEAR(std::abs(p(0, j + 1) - expected), 0.0, 1e-14);
  }
}

TEST(KkrMatrix, HasTInverseBlocksOnDiagonal) {
  const Scatterer scatterer(fe_scattering_parameters());
  const LizGeometry liz = build_liz(fe16(), 0, 5.6);
  Rng rng(3);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  const Complex z{0.3, 0.08};
  const linalg::ZMatrix p = scalar_propagator_matrix(liz, z);
  const linalg::ZMatrix m = assemble_kkr_matrix(scatterer, liz, moments, z, p);

  ASSERT_EQ(m.rows(), 2 * liz.zone_size());
  const spin::Spin2x2 ti0 = scatterer.t_inverse(moments[0], z);
  EXPECT_NEAR(std::abs(m(0, 0) - ti0[0]), 0.0, 1e-13);
  EXPECT_NEAR(std::abs(m(0, 1) - ti0[1]), 0.0, 1e-13);
  EXPECT_NEAR(std::abs(m(1, 0) - ti0[2]), 0.0, 1e-13);
  EXPECT_NEAR(std::abs(m(1, 1) - ti0[3]), 0.0, 1e-13);
}

TEST(KkrMatrix, OffDiagonalIsSpinConservingPropagation) {
  const Scatterer scatterer(fe_scattering_parameters());
  const LizGeometry liz = build_liz(fe16(), 0, 5.6);
  Rng rng(4);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  const Complex z{0.3, 0.08};
  const linalg::ZMatrix p = scalar_propagator_matrix(liz, z);
  const linalg::ZMatrix m = assemble_kkr_matrix(scatterer, liz, moments, z, p);
  const double strength = scatterer.params().propagator_strength;

  // Block (0, 1): -strength * g * 1_spin.
  const Complex g = strength * p(0, 1);
  EXPECT_NEAR(std::abs(m(0, 2) + g), 0.0, 1e-13);
  EXPECT_NEAR(std::abs(m(1, 3) + g), 0.0, 1e-13);
  EXPECT_NEAR(std::abs(m(0, 3)), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(m(1, 2)), 0.0, 1e-15);
}

TEST(CentralTau, MatchesFullInverseBlock) {
  const Scatterer scatterer(fe_scattering_parameters());
  const LizGeometry liz = build_liz(fe16(), 0, 5.6);
  Rng rng(5);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  const Complex z{0.3, 0.08};
  const linalg::ZMatrix p = scalar_propagator_matrix(liz, z);
  const linalg::ZMatrix m = assemble_kkr_matrix(scatterer, liz, moments, z, p);

  const spin::Spin2x2 tau = central_tau_block(m);
  const linalg::ZMatrix full_inverse = linalg::inverse(m);
  EXPECT_NEAR(std::abs(tau[0] - full_inverse(0, 0)), 0.0, 1e-11);
  EXPECT_NEAR(std::abs(tau[1] - full_inverse(0, 1)), 0.0, 1e-11);
  EXPECT_NEAR(std::abs(tau[2] - full_inverse(1, 0)), 0.0, 1e-11);
  EXPECT_NEAR(std::abs(tau[3] - full_inverse(1, 1)), 0.0, 1e-11);
}

TEST(CentralTau, CollinearConfigurationStaysSpinDiagonal) {
  // All moments along z: the spin channels never mix.
  const Scatterer scatterer(fe_scattering_parameters());
  const LizGeometry liz = build_liz(fe16(), 0, 5.6);
  const auto moments = spin::MomentConfiguration::ferromagnetic(16);
  const Complex z{0.35, 0.06};
  const linalg::ZMatrix p = scalar_propagator_matrix(liz, z);
  const spin::Spin2x2 tau = central_tau_block(
      assemble_kkr_matrix(scatterer, liz, moments, z, p));
  EXPECT_NEAR(std::abs(tau[1]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(tau[2]), 0.0, 1e-12);
}

// Computes tau_00 through the Schur-complement production path for the same
// inputs the reference path consumes.
spin::Spin2x2 schur_tau(const Scatterer& scatterer, const LizGeometry& liz,
                        const spin::MomentConfiguration& moments, Complex z,
                        SchurWorkspace& ws) {
  const linalg::ZMatrix p = scalar_propagator_matrix(liz, z);
  const SchurTemplates templates =
      make_schur_templates(p, scatterer.params().propagator_strength);
  const spin::Spin2x2 center = scatterer.t_inverse(moments[liz.center], z);
  std::vector<spin::Spin2x2> members(liz.members.size());
  for (std::size_t j = 0; j < liz.members.size(); ++j)
    members[j] = scatterer.t_inverse(moments[liz.members[j].site], z);
  return central_tau_schur(templates, center, members.data(), ws);
}

TEST(CentralTauSchur, MatchesReferencePathAtFastRadius) {
  const Scatterer scatterer(fe_scattering_parameters());
  const LizGeometry liz = build_liz(fe16(), 0, 5.6);
  Rng rng(6);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  SchurWorkspace ws;
  for (const Complex z : {Complex{0.3, 0.08}, Complex{0.1, 0.25}}) {
    const linalg::ZMatrix p = scalar_propagator_matrix(liz, z);
    const spin::Spin2x2 reference = central_tau_block(
        assemble_kkr_matrix(scatterer, liz, moments, z, p));
    const spin::Spin2x2 schur = schur_tau(scatterer, liz, moments, z, ws);
    for (int c = 0; c < 4; ++c)
      EXPECT_NEAR(std::abs(schur[c] - reference[c]), 0.0, 1e-12)
          << "component " << c;
  }
}

TEST(CentralTauSchur, MatchesReferencePathAtPaperRadius) {
  // 65-atom zone: the member block is 64 x 64 per spin, so this exercises
  // the spin-block kernel (two blocked LUs over four 16-column panels, the
  // inverse, the Schur complement) exactly as the production solver runs
  // it. The reference factors the whole 130 x 130 zone matrix with the
  // unblocked interleaved LU, so it shares no kernel with that path: it
  // books no trailing-update (kZgemm) flop.
  const Scatterer scatterer(fe_scattering_parameters());
  const LizGeometry liz = build_liz(fe16(), 0, units::fe_liz_radius_a0);
  ASSERT_EQ(liz.zone_size(), 65u);
  Rng rng(7);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  const Complex z{0.25, 0.12};
  const linalg::ZMatrix p = scalar_propagator_matrix(liz, z);
  const linalg::ZMatrix kkr =
      assemble_kkr_matrix(scatterer, liz, moments, z, p);
  const perf::FlopWindow window;
  const spin::Spin2x2 reference = central_tau_block(kkr);
  EXPECT_EQ(window.elapsed(perf::Kernel::kZgemm), 0u);
  SchurWorkspace ws;
  const spin::Spin2x2 schur = schur_tau(scatterer, liz, moments, z, ws);
  for (int c = 0; c < 4; ++c)
    EXPECT_NEAR(std::abs(schur[c] - reference[c]), 0.0, 1e-12)
        << "component " << c;
}

TEST(CentralTauSchur, IsolatedAtomInvertsCenterBlock) {
  // No members: tau = D^{-1} = t, with no linear algebra at all.
  const Scatterer scatterer(fe_scattering_parameters());
  LizGeometry lone;
  lone.center = 0;
  const auto moments = spin::MomentConfiguration::ferromagnetic(1);
  const Complex z{0.3, 0.08};
  const SchurTemplates templates =
      make_schur_templates(scalar_propagator_matrix(lone, z),
                           scatterer.params().propagator_strength);
  SchurWorkspace ws;
  const spin::Spin2x2 tau = central_tau_schur(
      templates, scatterer.t_inverse(moments[0], z), nullptr, ws);
  EXPECT_NEAR(std::abs(tau[0] - scatterer.t_up(z)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(tau[3] - scatterer.t_down(z)), 0.0, 1e-12);
}

TEST(CentralTauSchur, SingularSchurComplementThrows) {
  // A singular Schur block must fail loudly like the reference path's LU
  // (zero pivot), not return Inf/NaN tau that poisons the energies.
  const Scatterer scatterer(fe_scattering_parameters());
  LizGeometry lone;
  lone.center = 0;
  const Complex z{0.3, 0.08};
  const SchurTemplates templates =
      make_schur_templates(scalar_propagator_matrix(lone, z),
                           scatterer.params().propagator_strength);
  SchurWorkspace ws;
  const spin::Spin2x2 singular_center = {Complex{0.0, 0.0}, Complex{0.0, 0.0},
                                         Complex{0.0, 0.0}, Complex{0.0, 0.0}};
  EXPECT_THROW(central_tau_schur(templates, singular_center, nullptr, ws),
               linalg::SingularMatrixError);
}

TEST(CentralTauSchur, WorkspaceIsReusableAcrossZoneSizes) {
  // The same workspace must serve zones of different orders back to back
  // (the solver's thread-local scratch sees every zone of the walk). The
  // padded leading dimension of its planes changes with the order, so the
  // sequence both shrinks (128 -> 28) and grows again (28 -> 128).
  const Scatterer scatterer(fe_scattering_parameters());
  Rng rng(8);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  const Complex z{0.3, 0.08};
  SchurWorkspace ws;
  const LizGeometry big = build_liz(fe16(), 0, units::fe_liz_radius_a0);
  const LizGeometry small = build_liz(fe16(), 0, 5.6);
  for (const LizGeometry* liz : {&big, &small, &big}) {
    const spin::Spin2x2 tau = schur_tau(scatterer, *liz, moments, z, ws);
    const linalg::ZMatrix p = scalar_propagator_matrix(*liz, z);
    const spin::Spin2x2 reference = central_tau_block(
        assemble_kkr_matrix(scatterer, *liz, moments, z, p));
    for (int c = 0; c < 4; ++c)
      EXPECT_NEAR(std::abs(tau[c] - reference[c]), 0.0, 1e-12)
          << "zone size " << liz->zone_size() << " component " << c;
  }
}

TEST(CentralTauSchur, PivotingZoneMatchesReferencePath) {
  // Production zone matrices are diagonally strong enough that partial
  // pivoting rarely swaps rows, so the swap path of the spin-up block's LU
  // and of its inverse's column swaps would go untested at the paper
  // geometry. Scaling every member's t^-1 block by 1e-3 leaves both spin
  // blocks dominated by the hopping terms, which forces row swaps; the
  // Schur path must still agree with the full center-first factorization.
  const Scatterer scatterer(fe_scattering_parameters());
  const LizGeometry liz = build_liz(fe16(), 0, units::fe_liz_radius_a0);
  ASSERT_EQ(liz.zone_size(), 65u);
  Rng rng(9);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  const Complex z{0.25, 0.12};
  const double scale = 1e-3;
  const linalg::ZMatrix p = scalar_propagator_matrix(liz, z);

  linalg::ZMatrix kkr = assemble_kkr_matrix(scatterer, liz, moments, z, p);
  for (std::size_t j = 1; j < liz.zone_size(); ++j)
    for (std::size_t r = 2 * j; r < 2 * j + 2; ++r)
      for (std::size_t c = 2 * j; c < 2 * j + 2; ++c) kkr(r, c) *= scale;
  const spin::Spin2x2 reference = central_tau_block(kkr);

  const SchurTemplates templates =
      make_schur_templates(p, scatterer.params().propagator_strength);
  std::vector<spin::Spin2x2> members(liz.members.size());
  for (std::size_t j = 0; j < liz.members.size(); ++j) {
    members[j] = scatterer.t_inverse(moments[liz.members[j].site], z);
    for (Complex& v : members[j]) v *= scale;
  }
  SchurWorkspace ws;
  const spin::Spin2x2 tau = central_tau_schur(
      templates, scatterer.t_inverse(moments[liz.center], z), members.data(),
      ws);

  std::size_t swaps = 0;
  for (std::size_t k = 0; k < ws.f_pivots.size(); ++k)
    swaps += ws.f_pivots[k] != k ? 1 : 0;
  EXPECT_GT(swaps, 0u);
  for (int c = 0; c < 4; ++c)
    EXPECT_NEAR(std::abs(tau[c] - reference[c]), 0.0, 1e-12)
        << "component " << c;
}

TEST(CentralTauSchur, MatchesReferencePathForOrderedConfigurations) {
  // Ferromagnetic and staggered moments are collinear (no spin-flip t^-1
  // entries); in-plane moments mix the spin channels the most (T_uu =
  // T_dd). Every point of the paper's 16-point contour, at both LIZ radii,
  // for zones 0, 5, 10 and 15: the spin-block elimination never pivots
  // across the spin blocks, so this is where it would lose accuracy.
  const Scatterer scatterer(fe_scattering_parameters());
  const lattice::Structure cell = fe16();
  const ScatteringParameters& sp = scatterer.params();
  const std::vector<ContourPoint> contour =
      semicircle_contour(sp.band_bottom, sp.fermi_energy, 16);
  Rng rng(10);
  std::vector<Vec3> in_plane;
  std::vector<bool> sublattice;
  for (std::size_t i = 0; i < cell.size(); ++i) {
    const double phi = rng.uniform(0.0, 2.0 * std::acos(-1.0));
    in_plane.push_back({std::cos(phi), std::sin(phi), 0.0});
    sublattice.push_back(i % 2 == 1);
  }
  const spin::MomentConfiguration configs[] = {
      spin::MomentConfiguration::ferromagnetic(cell.size()),
      spin::MomentConfiguration::staggered(sublattice),
      spin::MomentConfiguration::from_directions(in_plane)};
  SchurWorkspace ws;
  for (const double radius : {5.6, units::fe_liz_radius_a0})
    for (std::size_t zone = 0; zone < cell.size(); zone += 5) {
      const LizGeometry liz = build_liz(cell, zone, radius);
      for (const ContourPoint& cp : contour) {
        const linalg::ZMatrix p = scalar_propagator_matrix(liz, cp.z);
        for (std::size_t c = 0; c < 3; ++c) {
          const spin::Spin2x2 reference = central_tau_block(
              assemble_kkr_matrix(scatterer, liz, configs[c], cp.z, p));
          const spin::Spin2x2 tau =
              schur_tau(scatterer, liz, configs[c], cp.z, ws);
          for (int e = 0; e < 4; ++e)
            EXPECT_NEAR(std::abs(tau[e] - reference[e]), 0.0, 1e-12)
                << "radius " << radius << ", zone " << zone << ", z "
                << cp.z << ", configuration " << c << ", component " << e;
        }
      }
    }
}

TEST(CentralTau, IsolatedAtomReducesToSingleSiteT) {
  // A LIZ with no members: tau = t (the free single scatterer).
  const Scatterer scatterer(fe_scattering_parameters());
  LizGeometry lone;
  lone.center = 0;
  const auto moments = spin::MomentConfiguration::ferromagnetic(1);
  const Complex z{0.3, 0.08};
  const linalg::ZMatrix p = scalar_propagator_matrix(lone, z);
  const spin::Spin2x2 tau = central_tau_block(
      assemble_kkr_matrix(scatterer, lone, moments, z, p));
  EXPECT_NEAR(std::abs(tau[0] - scatterer.t_up(z)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(tau[3] - scatterer.t_down(z)), 0.0, 1e-12);
}

}  // namespace
}  // namespace wlsms::lsms
