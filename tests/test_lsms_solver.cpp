// Physics and consistency tests for the LSMS energy engine.
#include "lsms/solver.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "linalg/lu.hpp"
#include "lsms/fe_parameters.hpp"
#include "perf/flops.hpp"
#include "spin/rotation.hpp"

namespace wlsms::lsms {
namespace {

LsmsSolver fast_solver(std::size_t n_cells = 2) {
  return LsmsSolver(lattice::make_fe_supercell(n_cells),
                    fe_lsms_parameters_fast());
}

// e_i alone, from a one-zone solve_zones job.
double single_zone_energy(const LsmsSolver& solver, std::size_t i,
                          const spin::MomentConfiguration& config,
                          ZoneThreading threading = ZoneThreading::kOpenMp) {
  return solver.solve_zones({{&config, {i}}}, threading).front().per_atom[0];
}

// Applies a global SO(3) rotation (angle about axis) to every moment.
spin::MomentConfiguration rotate_all(const spin::MomentConfiguration& config,
                                     const Vec3& axis_raw, double angle) {
  const Vec3 axis = axis_raw.normalized();
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  std::vector<Vec3> dirs;
  dirs.reserve(config.size());
  for (std::size_t i = 0; i < config.size(); ++i) {
    const Vec3& v = config[i];
    // Rodrigues' formula.
    dirs.push_back(v * c + axis.cross(v) * s + axis * (axis.dot(v) * (1 - c)));
  }
  return spin::MomentConfiguration::from_directions(dirs);
}

TEST(LsmsSolver, EnergyIsGlobalRotationInvariant) {
  // The frozen-potential functional depends only on relative moment
  // orientations; a global rotation must leave E unchanged. This is the
  // fundamental symmetry of the method (no spin-orbit terms).
  const LsmsSolver solver = fast_solver();
  Rng rng(1);
  const auto config = spin::MomentConfiguration::random(16, rng);
  const double e0 = solver.energy(config);
  for (int k = 0; k < 3; ++k) {
    const Vec3 axis = rng.unit_vector();
    const double angle = rng.uniform(0.1, 3.0);
    const double e_rot = solver.energy(rotate_all(config, axis, angle));
    EXPECT_NEAR(e_rot, e0, 1e-9 * std::abs(e0) + 1e-12);
  }
}

TEST(LsmsSolver, FerromagneticEnergyIndependentOfDirection) {
  const LsmsSolver solver = fast_solver();
  const double e_z = solver.energy(spin::MomentConfiguration::ferromagnetic(16));
  const double e_x = solver.energy(spin::MomentConfiguration::from_directions(
      std::vector<Vec3>(16, Vec3{1, 0, 0})));
  const double e_tilt = solver.energy(spin::MomentConfiguration::from_directions(
      std::vector<Vec3>(16, Vec3{1, 1, 1})));
  EXPECT_NEAR(e_x, e_z, 1e-9 * std::abs(e_z));
  EXPECT_NEAR(e_tilt, e_z, 1e-9 * std::abs(e_z));
}

TEST(LsmsSolver, FerromagneticBelowDisorderedBelowStaggered) {
  // The calibrated Fe substrate orders ferromagnetically: E_FM < E_random
  // (and the staggered arrangement tops the exchange energy scale).
  const LsmsSolver solver = fast_solver();
  Rng rng(2);
  const double e_fm =
      solver.energy(spin::MomentConfiguration::ferromagnetic(16));
  double e_random_mean = 0.0;
  for (int k = 0; k < 4; ++k)
    e_random_mean +=
        solver.energy(spin::MomentConfiguration::random(16, rng));
  e_random_mean /= 4.0;
  std::vector<bool> sub(16);
  for (std::size_t i = 0; i < 16; ++i) sub[i] = (i % 2 == 1);
  const double e_afm =
      solver.energy(spin::MomentConfiguration::staggered(sub));
  EXPECT_LT(e_fm, e_random_mean);
  EXPECT_LT(e_random_mean, e_afm);
}

TEST(LsmsSolver, TotalEqualsSumOfLocalEnergies) {
  const LsmsSolver solver = fast_solver();
  Rng rng(3);
  const auto config = spin::MomentConfiguration::random(16, rng);
  const LocalEnergies all = solver.energies(config);
  double sum = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(single_zone_energy(solver, i, config), all.per_atom[i]);
    sum += all.per_atom[i];
  }
  EXPECT_EQ(all.total, sum);
}

TEST(LsmsSolver, LocalEnergiesEqualOnEquivalentSitesOfFm) {
  const LsmsSolver solver = fast_solver();
  const LocalEnergies all =
      solver.energies(spin::MomentConfiguration::ferromagnetic(16));
  for (std::size_t i = 1; i < 16; ++i)
    EXPECT_NEAR(all.per_atom[i], all.per_atom[0], 1e-10);
}

TEST(LsmsSolver, EnergyAfterMoveMatchesFullRecompute) {
  // Move-local evaluation: after a one-site move only the zones of
  // affected_sites(site) are re-solved and every other e_i is kept, which
  // must be bitwise the full recompute of the moved configuration.
  const LsmsSolver solver = fast_solver();
  Rng rng(4);
  auto config = spin::MomentConfiguration::random(16, rng);
  LocalEnergies current = solver.energies(config);

  for (int k = 0; k < 3; ++k) {
    const std::size_t site = rng.uniform_index(16);
    config.set(site, rng.unit_vector());
    const std::vector<std::size_t>& affected = solver.affected_sites(site);
    ASSERT_LT(affected.size(), 16u);
    const LocalEnergies moved =
        solver.solve_zones({{&config, affected}}).front();
    for (std::size_t a = 0; a < affected.size(); ++a)
      current.per_atom[affected[a]] = moved.per_atom[a];
    current.total = 0.0;
    for (double e : current.per_atom) current.total += e;

    const LocalEnergies recomputed = solver.energies(config);
    EXPECT_EQ(current.per_atom, recomputed.per_atom);
    EXPECT_EQ(current.total, recomputed.total);
  }
}

TEST(LsmsSolver, AffectedSitesAreSymmetricAndIncludeSelf) {
  const LsmsSolver solver = fast_solver();
  for (std::size_t i = 0; i < solver.n_atoms(); ++i) {
    const auto& affected = solver.affected_sites(i);
    EXPECT_TRUE(std::find(affected.begin(), affected.end(), i) !=
                affected.end());
    for (std::size_t j : affected) {
      const auto& back = solver.affected_sites(j);
      EXPECT_TRUE(std::find(back.begin(), back.end(), i) != back.end());
    }
  }
}

TEST(LsmsSolver, AffectedSitesOfPeriodicCrystalCoverLizNeighbors) {
  const LsmsSolver solver = fast_solver();
  // Fast parameters use a 2-shell LIZ (15 atoms in the zone). In the
  // 16-atom periodic cell those 14 neighbours map onto fewer *distinct*
  // sites: the 8 first-shell neighbours are distinct, but the 6 second-
  // shell ones (+-a along each axis) pair up through the 2-cell box,
  // giving 3 distinct sites. Affected = self + 8 + 3 = 12.
  EXPECT_EQ(solver.affected_sites(0).size(), 12u);
}

TEST(LsmsSolver, LizSizeMatchesGeometry) {
  const LsmsSolver solver = fast_solver();
  for (std::size_t i = 0; i < solver.n_atoms(); ++i)
    EXPECT_EQ(solver.liz_size(i), 15u);  // 1 + 8 + 6
}

TEST(LsmsSolver, FlopsPerEnergyMatchesAnalyticCount) {
  const LsmsSolver solver = fast_solver();
  // Fast parameters: 15-atom zones, so the spin-block kernel runs on
  // L = 14 members: the LUs of the 14 x 14 spin-up block F and of its Schur
  // complement S2, F^-1, S2's update (14 flops per entry), w = F^-1 b and
  // F^-T c, the two-column solve with S2, two vector scalings (6 flops per
  // entry each) and five closing dot products -- per contour point (8 of
  // them), per atom (16).
  const std::uint64_t l = 14;
  const std::uint64_t per_point =
      2 * perf::cost::zgetrf_blocked(l, linalg::kLuBlockSize) +
      perf::cost::zgetri(l) + 14 * l * l +
      perf::cost::zgemm(l, 2, l) + perf::cost::zgetrs(l, 2) + 2 * 6 * l +
      perf::cost::zgemm(2, 2, l) + perf::cost::zgemm(1, 1, l);
  EXPECT_EQ(solver.flops_per_zone_energy(0), 8u * per_point);
  EXPECT_EQ(solver.flops_per_energy(), 16u * 8u * per_point);
}

TEST(LsmsSolver, InstrumentedFlopsMatchAnalyticCount) {
  // The analytic model must agree with the perf counters to the flop, at
  // the fast (L = 14, one partial 16-row block) and paper (L = 64, four
  // blocks) zone orders, in a zone whose factorizations pivot, and around
  // OpenMP solves, whose zones land on pool threads.
  Rng rng(11);
  {
    const LsmsSolver solver = fast_solver();
    const auto config = spin::MomentConfiguration::random(16, rng);
    perf::FlopWindow window;
    single_zone_energy(solver, 0, config, ZoneThreading::kSerial);
    EXPECT_EQ(window.elapsed(), solver.flops_per_zone_energy(0));
  }
  {
    const LsmsSolver solver(lattice::make_fe_supercell(2),
                            fe_lsms_parameters());
    ASSERT_EQ(solver.liz_size(0), 65u);
    const auto config = spin::MomentConfiguration::random(16, rng);
    perf::FlopWindow window;
    single_zone_energy(solver, 0, config, ZoneThreading::kSerial);
    EXPECT_EQ(window.elapsed(), solver.flops_per_zone_energy(0));
  }
  {
    // A pivoting zone books the same flops: scaling every member's t^-1 by
    // 1e-3 (as CentralTauSchur.PivotingZoneMatchesReferencePath does) makes
    // the spin-up block's LU swap rows, and its inverse then swaps columns.
    const LsmsSolver solver(lattice::make_fe_supercell(2),
                            fe_lsms_parameters());
    const auto config = spin::MomentConfiguration::random(16, rng);
    const LizGeometry liz =
        build_liz(solver.structure(), 0, solver.params().liz_radius);
    const Complex z = solver.contour().front().z;
    const SchurTemplates templates = make_schur_templates(
        scalar_propagator_matrix(liz, z),
        solver.params().scattering.propagator_strength);
    std::vector<spin::Spin2x2> members(liz.members.size());
    for (std::size_t j = 0; j < members.size(); ++j) {
      members[j] = solver.scatterer().t_inverse(config[liz.members[j].site], z);
      for (Complex& v : members[j]) v *= 1e-3;
    }
    SchurWorkspace ws;
    perf::FlopWindow window;
    (void)central_tau_schur(templates,
                            solver.scatterer().t_inverse(config[0], z),
                            members.data(), ws);
    EXPECT_EQ(window.elapsed() * solver.contour().size(),
              solver.flops_per_zone_energy(0));
    std::size_t swaps = 0;
    for (std::size_t k = 0; k < ws.f_pivots.size(); ++k)
      swaps += ws.f_pivots[k] != k ? 1 : 0;
    EXPECT_GT(swaps, 0u);
  }
  {
    // Regression: each pool thread kept up to 2^20 flops per kernel
    // undrained, so a window around an OpenMP solve read low whenever a
    // zone ran off the calling thread. solve_zones now drains every team
    // thread before it returns.
    const LsmsSolver solver = fast_solver();
    const int saved_threads = omp_get_max_threads();
    omp_set_num_threads(3);
    for (int call = 0; call < 20; ++call) {
      const auto config = spin::MomentConfiguration::random(16, rng);
      {
        perf::FlopWindow window;
        (void)solver.energies(config);
        EXPECT_EQ(window.elapsed(), solver.flops_per_energy())
            << "energies() call " << call;
      }
      const std::size_t zone = static_cast<std::size_t>(call) % 16;
      perf::FlopWindow window;
      single_zone_energy(solver, zone, config, ZoneThreading::kOpenMp);
      EXPECT_EQ(window.elapsed(), solver.flops_per_zone_energy(zone))
          << "one-zone solve_zones call " << call;
    }
    omp_set_num_threads(saved_threads);
  }
}

TEST(LsmsSolver, GemmFractionDominatesAtPaperGeometry) {
  // The acceptance bar of the GEMM-rich refactor: at the paper's LIZ the
  // flops booked under the kZgemm tag (linalg::spin_block_solve's trailing
  // updates, the tile products of F^-1 and the Schur and coupling
  // products) are at least 60 % of an energy zone's.
  const LsmsSolver solver(lattice::make_fe_supercell(2), fe_lsms_parameters());
  Rng rng(12);
  const auto config = spin::MomentConfiguration::random(16, rng);
  perf::FlopWindow window;
  single_zone_energy(solver, 0, config, ZoneThreading::kSerial);
  EXPECT_GE(window.gemm_fraction(), 0.6);
}

TEST(LsmsSolver, SchurPathMatchesReferenceAssembly) {
  // Reconstruct every zone's local energy through the original path -- full
  // assembly of that zone's own matrix and center-first factorization --
  // and require the production path to agree to 1e-10 Ry. Congruent zones
  // share one template set, built from the first zone's geometry, so this
  // fails unless every zone lists its members in the template's order
  // (a ferromagnetic configuration would hide that: all t^-1 are equal).
  const LsmsSolver fast16 = fast_solver(2);
  const LsmsSolver fast54 = fast_solver(3);
  const LsmsSolver paper16(lattice::make_fe_supercell(2),
                           fe_lsms_parameters());
  Rng rng(13);
  for (const LsmsSolver* solver : {&fast16, &fast54, &paper16}) {
    const auto config =
        spin::MomentConfiguration::random(solver->n_atoms(), rng);
    const LocalEnergies got = solver->energies(config);
    for (std::size_t i = 0; i < solver->n_atoms(); ++i) {
      const LizGeometry liz =
          build_liz(solver->structure(), i, solver->params().liz_radius);
      Complex accumulated{0.0, 0.0};
      for (const ContourPoint& cp : solver->contour()) {
        const linalg::ZMatrix p = scalar_propagator_matrix(liz, cp.z);
        const spin::Spin2x2 tau = central_tau_block(
            assemble_kkr_matrix(solver->scatterer(), liz, config, cp.z, p));
        accumulated += cp.weight * cp.z * (tau[0] + tau[3]);
      }
      const double reference = -accumulated.imag() / std::acos(-1.0);
      EXPECT_NEAR(got.per_atom[i], reference, 1e-10)
          << solver->n_atoms() << " atoms, LIZ " << solver->liz_size(i)
          << ", zone " << i;
    }
  }
}

TEST(LsmsSolver, BatchEnergiesMatchEnergiesBitwise) {
  // The serving scheduler's batched path must return exactly what
  // energies() returns for every configuration of the batch, at any batch
  // size and any OpenMP team size. Two substrates: the fast LIZ (14 x 14
  // spin blocks, one 16-row block) and the 50-neighbour LIZ the serve bench
  // uses (50 x 50 spin blocks, so linalg::spin_block_solve's LUs and
  // inverse run over several 16-row blocks).
  LsmsParameters serving = fe_lsms_parameters_fast();
  serving.liz_radius = 9.1;
  const LsmsSolver fast = fast_solver();
  const LsmsSolver wide(lattice::make_fe_supercell(2), serving);
  ASSERT_GT(wide.liz_size(0) - 1, 2 * linalg::kLuBlockSize);

  const int saved_threads = omp_get_max_threads();
  for (const LsmsSolver* solver : {&fast, &wide}) {
    Rng rng(14);
    std::vector<spin::MomentConfiguration> configs;
    std::vector<LocalEnergies> reference;
    for (int c = 0; c < 8; ++c) {
      configs.push_back(spin::MomentConfiguration::random(16, rng));
      reference.push_back(solver->energies(configs.back()));
    }
    for (const int threads : {1, 3}) {
      omp_set_num_threads(threads);
      for (const std::size_t size : {1, 3, 9}) {
        // The last slot repeats the first configuration.
        std::vector<ZoneJob> batch;
        std::vector<std::size_t> index;
        for (std::size_t b = 0; b < size; ++b) {
          index.push_back(b + 1 < size ? b : 0);
          batch.push_back({&configs[index.back()], solver->all_zones()});
        }
        const std::vector<LocalEnergies> got = solver->solve_zones(batch);
        ASSERT_EQ(got.size(), size);
        for (std::size_t b = 0; b < size; ++b) {
          EXPECT_EQ(got[b].per_atom, reference[index[b]].per_atom)
              << "threads " << threads << ", batch " << size << ", slot " << b;
          EXPECT_EQ(got[b].total, reference[index[b]].total)
              << "threads " << threads << ", batch " << size << ", slot " << b;
        }
      }
    }
  }
  omp_set_num_threads(saved_threads);
}

TEST(LsmsSolver, SolveZonesMixesJobsBitIdenticallyInBothModes) {
  // One call may mix configurations, partial and full zone lists and an
  // empty list; every e_i is energies()' own, in zone-list order, whether
  // the call runs on OpenMP or serially.
  const LsmsSolver solver = fast_solver();
  Rng rng(15);
  std::vector<spin::MomentConfiguration> configs;
  std::vector<LocalEnergies> reference;
  for (int c = 0; c < 3; ++c) {
    configs.push_back(spin::MomentConfiguration::random(16, rng));
    reference.push_back(solver.energies(configs.back()));
  }
  const std::vector<ZoneJob> jobs = {{&configs[0], {1, 4, 15}},
                                     {&configs[1], solver.all_zones()},
                                     {&configs[2], {}},
                                     {&configs[0], solver.affected_sites(7)}};
  for (const ZoneThreading mode :
       {ZoneThreading::kOpenMp, ZoneThreading::kSerial}) {
    const std::vector<LocalEnergies> got = solver.solve_zones(jobs, mode);
    ASSERT_EQ(got.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::size_t c = j == 3 ? 0 : j;
      ASSERT_EQ(got[j].per_atom.size(), jobs[j].zones.size());
      for (std::size_t k = 0; k < jobs[j].zones.size(); ++k)
        EXPECT_EQ(got[j].per_atom[k],
                  reference[c].per_atom[jobs[j].zones[k]])
            << "job " << j << ", slot " << k;
    }
    EXPECT_EQ(got[1].total, reference[1].total);
    EXPECT_EQ(got[2].total, 0.0);
  }
}

TEST(LsmsSolver, SolveZonesRejectsMalformedJobs) {
  const LsmsSolver solver = fast_solver();
  Rng rng(16);
  const auto config = spin::MomentConfiguration::random(16, rng);
  EXPECT_THROW(solver.solve_zones({{nullptr, {0}}}), ContractError);
  EXPECT_THROW(solver.solve_zones({{&config, {16}}}), ContractError);
  EXPECT_THROW(solver.solve_zones({{&config, {3, 2}}}), ContractError);
  EXPECT_THROW(solver.solve_zones({{&config, {2, 2}}}), ContractError);
  EXPECT_TRUE(solver.solve_zones({}).empty());
}

TEST(LsmsSolver, EnergyScalesExtensively) {
  // Twice the cell volume (FM reference): twice the energy per the shared-
  // geometry zones.
  const LsmsSolver small = fast_solver(2);
  const LsmsSolver large(lattice::make_fe_supercell(3),
                         fe_lsms_parameters_fast());
  const double e_small =
      small.energy(spin::MomentConfiguration::ferromagnetic(16));
  const double e_large =
      large.energy(spin::MomentConfiguration::ferromagnetic(54));
  EXPECT_NEAR(e_large / e_small, 54.0 / 16.0, 1e-6);
}

TEST(LsmsSolver, ContractViolations) {
  const LsmsSolver solver = fast_solver();
  Rng rng(6);
  const auto wrong_size = spin::MomentConfiguration::random(8, rng);
  EXPECT_THROW(solver.energy(wrong_size), ContractError);
  EXPECT_THROW(single_zone_energy(solver, 99, wrong_size), ContractError);
  EXPECT_THROW(solver.affected_sites(99), ContractError);
}

}  // namespace
}  // namespace wlsms::lsms
