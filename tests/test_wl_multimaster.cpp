// Tests for the multiple-master extension (paper §V outlook).
#include "wl/multimaster.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"
#include "heisenberg/heisenberg.hpp"
#include "lattice/cluster.hpp"
#include "thermo/observables.hpp"
#include "throwing_energy.hpp"

namespace wlsms::wl {
namespace {

TEST(MergeDos, AveragesOverContributors) {
  DosGridConfig grid{0.0, 1.0, 10, 0.05};
  DosGrid a(grid);
  DosGrid b(grid);
  a.set_ln_g_values({2, 2, 2, 0, 0, 0, 0, 0, 0, 0});
  a.set_visited({1, 1, 1, 0, 0, 0, 0, 0, 0, 0});
  b.set_ln_g_values({4, 0, 4, 4, 0, 0, 0, 0, 0, 0});
  b.set_visited({1, 0, 1, 1, 0, 0, 0, 0, 0, 0});

  const DosGrid merged = merge_dos_estimates({&a, &b});
  EXPECT_DOUBLE_EQ(merged.ln_g_values()[0], 3.0);  // both visited
  EXPECT_DOUBLE_EQ(merged.ln_g_values()[1], 2.0);  // only a
  EXPECT_DOUBLE_EQ(merged.ln_g_values()[3], 4.0);  // only b
  EXPECT_DOUBLE_EQ(merged.ln_g_values()[5], 0.0);  // neither
  EXPECT_EQ(merged.visited()[0], 1);
  EXPECT_EQ(merged.visited()[5], 0);
}

TEST(MergeDos, SingleEstimateIsIdentity) {
  DosGridConfig grid{0.0, 1.0, 5, 0.05};
  DosGrid a(grid);
  a.set_ln_g_values({1, 2, 3, 4, 5});
  a.set_visited({1, 1, 1, 1, 1});
  const DosGrid merged = merge_dos_estimates({&a});
  EXPECT_EQ(merged.ln_g_values(), a.ln_g_values());
}

TEST(MergeDos, EmptyListThrows) {
  EXPECT_THROW(merge_dos_estimates({}), ContractError);
}

// Property: merging K identical copies of an estimate returns that estimate.
TEST(MergeDos, KIdenticalCopiesAreIdentity) {
  const DosGridConfig grid{-1.0, 2.0, 24, 0.01};
  Rng rng(101);
  DosGrid a(grid);
  std::vector<double> values(grid.bins, 0.0);
  std::vector<std::uint8_t> visited(grid.bins, 0);
  for (std::size_t b = 0; b < grid.bins; ++b) {
    visited[b] = rng.uniform() < 0.7 ? 1 : 0;
    if (visited[b]) values[b] = 10.0 * rng.uniform();
  }
  a.set_ln_g_values(values);
  a.set_visited(visited);

  for (std::size_t k : {2u, 3u, 7u}) {
    const std::vector<const DosGrid*> copies(k, &a);
    const DosGrid merged = merge_dos_estimates(copies);
    // The k-fold mean of identical values is identical up to summation
    // rounding (exact for powers of two, ~1 ulp otherwise).
    for (std::size_t b = 0; b < grid.bins; ++b)
      EXPECT_NEAR(merged.ln_g_values()[b], a.ln_g_values()[b], 1e-13)
          << "k=" << k << " bin=" << b;
    EXPECT_EQ(merged.visited(), a.visited()) << "k=" << k;
  }
}

// Property: the merge is invariant under permutations of the estimate list.
TEST(MergeDos, PermutationInvariant) {
  const DosGridConfig grid{0.0, 1.0, 16, 0.02};
  Rng rng(102);
  std::vector<DosGrid> masters;
  for (int m = 0; m < 4; ++m) {
    DosGrid dos(grid);
    std::vector<double> values(grid.bins, 0.0);
    std::vector<std::uint8_t> visited(grid.bins, 0);
    for (std::size_t b = 0; b < grid.bins; ++b) {
      visited[b] = rng.uniform() < 0.6 ? 1 : 0;
      if (visited[b]) values[b] = 5.0 * rng.uniform();
    }
    dos.set_ln_g_values(values);
    dos.set_visited(visited);
    masters.push_back(std::move(dos));
  }

  const DosGrid reference =
      merge_dos_estimates({&masters[0], &masters[1], &masters[2], &masters[3]});
  const std::vector<std::vector<std::size_t>> permutations = {
      {1, 0, 2, 3}, {3, 2, 1, 0}, {2, 3, 0, 1}, {1, 3, 0, 2}};
  for (const auto& permutation : permutations) {
    std::vector<const DosGrid*> order;
    for (std::size_t index : permutation) order.push_back(&masters[index]);
    const DosGrid merged = merge_dos_estimates(order);
    for (std::size_t b = 0; b < grid.bins; ++b)
      EXPECT_NEAR(merged.ln_g_values()[b], reference.ln_g_values()[b], 1e-12);
    EXPECT_EQ(merged.visited(), reference.visited());
  }
}

// Property: a bin visited by no master stays exactly zero and unvisited —
// the merge must not invent density where no walk has been.
TEST(MergeDos, BinsVisitedByNoMasterStayZero) {
  const DosGridConfig grid{0.0, 1.0, 12, 0.02};
  DosGrid a(grid);
  DosGrid b(grid);
  // Both masters leave bins 4..7 untouched.
  a.set_ln_g_values({1, 2, 3, 4, 0, 0, 0, 0, 9, 9, 0, 0});
  a.set_visited({1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0});
  b.set_ln_g_values({2, 3, 0, 0, 0, 0, 0, 0, 7, 7, 5, 5});
  b.set_visited({1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1});
  const DosGrid merged = merge_dos_estimates({&a, &b});
  for (std::size_t bin = 4; bin < 8; ++bin) {
    EXPECT_EQ(merged.visited()[bin], 0) << "bin " << bin;
    EXPECT_DOUBLE_EQ(merged.ln_g_values()[bin], 0.0) << "bin " << bin;
  }
  // ...while union coverage is preserved everywhere else.
  for (std::size_t bin : {0u, 1u, 2u, 3u, 8u, 9u, 10u, 11u})
    EXPECT_EQ(merged.visited()[bin], 1) << "bin " << bin;
}

double langevin(double x) { return 1.0 / std::tanh(x) - 1.0 / x; }

TEST(MultiMaster, ConvergesToSingleBondExactResult) {
  // Two masters with two walkers each on the exactly solvable single bond;
  // the merged DOS must reproduce the Langevin internal energy.
  const auto structure = lattice::make_cubic_cluster(
      lattice::CubicLattice::kSimpleCubic, 1.0, 2, 1, 1);
  const HeisenbergEnergy energy(
      heisenberg::HeisenbergModel(structure, {1.0}));

  WangLandauConfig per_master;
  per_master.grid = {-1.02, 1.02, 102, 0.005};
  per_master.n_walkers = 2;
  per_master.check_interval = 2000;
  per_master.flatness = 0.8;
  per_master.max_iteration_steps = 300000;
  per_master.max_steps = 40000000;

  const MultiMasterResult result =
      run_multimaster(energy, per_master, 2, 1e-4, Rng(17));

  EXPECT_EQ(result.gamma_levels, 14u);  // 2^-14 <= 1e-4
  ASSERT_EQ(result.per_master.size(), 2u);
  for (const WangLandauStats& stats : result.per_master)
    EXPECT_GT(stats.total_steps, 0u);

  const thermo::DosTable table = thermo::dos_table(result.merged_dos);
  const double t = 1.0 / (units::k_boltzmann_ry * 1.0);
  EXPECT_NEAR(thermo::observables_at(table, t).internal_energy,
              -langevin(1.0), 0.03);
}

TEST(MultiMaster, FourMastersStillConverge) {
  const auto structure = lattice::make_cubic_cluster(
      lattice::CubicLattice::kSimpleCubic, 1.0, 2, 1, 1);
  const HeisenbergEnergy energy(
      heisenberg::HeisenbergModel(structure, {1.0}));

  WangLandauConfig per_master;
  per_master.grid = {-1.02, 1.02, 102, 0.005};
  per_master.n_walkers = 1;
  per_master.check_interval = 2000;
  per_master.flatness = 0.8;
  per_master.max_iteration_steps = 200000;
  per_master.max_steps = 40000000;

  const MultiMasterResult result =
      run_multimaster(energy, per_master, 4, 1e-3, Rng(18));
  const thermo::DosTable table = thermo::dos_table(result.merged_dos);
  const double t = 1.0 / (units::k_boltzmann_ry * 2.0);
  EXPECT_NEAR(thermo::observables_at(table, t).internal_energy,
              -langevin(2.0), 0.05);
}

WangLandauConfig short_single_bond_config() {
  WangLandauConfig per_master;
  per_master.grid = {-1.02, 1.02, 102, 0.005};
  per_master.n_walkers = 2;
  per_master.check_interval = 2000;
  per_master.flatness = 0.8;
  per_master.max_iteration_steps = 20000;
  per_master.max_steps = 4000000;
  return per_master;
}

TEST(MultiMaster, ForcedIterationsAreReportedPerMaster) {
  // An iteration cap far below what any histogram needs to go flat (and a
  // flatness no random histogram meets): every level ends by the cap, so
  // every master reports one forced cut per level.
  const auto structure = lattice::make_cubic_cluster(
      lattice::CubicLattice::kSimpleCubic, 1.0, 2, 1, 1);
  const HeisenbergEnergy energy(
      heisenberg::HeisenbergModel(structure, {1.0}));
  WangLandauConfig per_master = short_single_bond_config();
  per_master.flatness = 0.999;
  per_master.max_iteration_steps = 100;

  const MultiMasterResult result =
      run_multimaster(energy, per_master, 3, 1e-2, Rng(5));
  EXPECT_EQ(result.gamma_levels, 7u);  // 2^-7 <= 1e-2
  ASSERT_EQ(result.per_master.size(), 3u);
  for (const WangLandauStats& stats : result.per_master) {
    EXPECT_EQ(stats.iterations, result.gamma_levels);
    EXPECT_EQ(stats.forced_iterations, result.gamma_levels);
  }
}

TEST(MultiMaster, StepCapEndsTheWholeRun) {
  // max_steps caps each master's whole run, not each level: the run stops
  // at the first master to reach it, long before gamma reaches 1e-6 (20
  // levels of at most 20000 steps each).
  const auto structure = lattice::make_cubic_cluster(
      lattice::CubicLattice::kSimpleCubic, 1.0, 2, 1, 1);
  const HeisenbergEnergy energy(
      heisenberg::HeisenbergModel(structure, {1.0}));
  WangLandauConfig per_master = short_single_bond_config();
  per_master.max_steps = 30000;
  const MultiMasterResult result =
      run_multimaster(energy, per_master, 2, 1e-6, Rng(6));
  std::uint64_t longest = 0;
  for (const WangLandauStats& stats : result.per_master) {
    EXPECT_LT(stats.total_steps, per_master.max_steps + per_master.n_walkers);
    longest = std::max(longest, stats.total_steps);
  }
  EXPECT_GE(longest, per_master.max_steps);
  EXPECT_LT(result.gamma_levels, 20u);
}

TEST(MultiMaster, FixedSeedReproducesBitIdenticalOutput) {
  // Masters advance on pool threads from private streams split from one
  // seed, and merges run on the coordinator between levels, so the run is
  // independent of thread scheduling.
  const auto structure = lattice::make_cubic_cluster(
      lattice::CubicLattice::kSimpleCubic, 1.0, 2, 1, 1);
  const HeisenbergEnergy energy(
      heisenberg::HeisenbergModel(structure, {1.0}));
  const WangLandauConfig per_master = short_single_bond_config();

  const MultiMasterResult a =
      run_multimaster(energy, per_master, 3, 1e-3, Rng(23));
  const MultiMasterResult b =
      run_multimaster(energy, per_master, 3, 1e-3, Rng(23));
  EXPECT_EQ(a.merged_dos.ln_g_values(), b.merged_dos.ln_g_values());
  EXPECT_EQ(a.merged_dos.visited(), b.merged_dos.visited());
  EXPECT_EQ(a.gamma_levels, b.gamma_levels);
  ASSERT_EQ(a.per_master.size(), b.per_master.size());
  for (std::size_t m = 0; m < a.per_master.size(); ++m) {
    EXPECT_EQ(a.per_master[m].total_steps, b.per_master[m].total_steps);
    EXPECT_EQ(a.per_master[m].accepted_steps, b.per_master[m].accepted_steps);
    EXPECT_EQ(a.per_master[m].out_of_range, b.per_master[m].out_of_range);
    EXPECT_EQ(a.per_master[m].iterations, b.per_master[m].iterations);
    EXPECT_EQ(a.per_master[m].forced_iterations,
              b.per_master[m].forced_iterations);
  }

  const MultiMasterResult c =
      run_multimaster(energy, per_master, 3, 1e-3, Rng(24));
  EXPECT_NE(a.merged_dos.ln_g_values(), c.merged_dos.ln_g_values());
}

TEST(MultiMaster, MasterExceptionReachesTheCaller) {
  // Masters are seeded through total_energy, so every energy_after_move
  // call comes from a round on a pool thread. The first failure must reach
  // run_multimaster's caller instead of terminating the process.
  constexpr std::uint64_t kThreshold = 1000;
  const auto structure = lattice::make_cubic_cluster(
      lattice::CubicLattice::kSimpleCubic, 1.0, 2, 1, 1);
  const HeisenbergEnergy bond(heisenberg::HeisenbergModel(structure, {1.0}));
  const ThrowingEnergy energy(bond, kThreshold);
  EXPECT_THROW(run_multimaster(energy, short_single_bond_config(), 3, 1e-3,
                               Rng(23)),
               BackendFailure);
  EXPECT_GT(energy.calls(), kThreshold);
}

TEST(MultiMaster, InvalidArgumentsThrow) {
  const auto structure = lattice::make_cubic_cluster(
      lattice::CubicLattice::kSimpleCubic, 1.0, 2, 1, 1);
  const HeisenbergEnergy energy(
      heisenberg::HeisenbergModel(structure, {1.0}));
  WangLandauConfig per_master;
  per_master.grid = {-1.02, 1.02, 20, 0.02};
  EXPECT_THROW(run_multimaster(energy, per_master, 0, 1e-3, Rng(1)),
               ContractError);
  EXPECT_THROW(run_multimaster(energy, per_master, 2, 2.0, Rng(1)),
               ContractError);
}

}  // namespace
}  // namespace wlsms::wl
