// Tests for the joint density of states g(E, M_z) and its sampler.
#include "wl/joint_wl.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <cmath>

#include "heisenberg/heisenberg.hpp"
#include "lattice/cluster.hpp"
#include "wl/joint_dos.hpp"

namespace wlsms::wl {
namespace {

JointDosConfig small_grid() {
  JointDosConfig config;
  config.e_min = -1.05;
  config.e_max = 1.05;
  config.e_bins = 42;
  config.m_min = -1.05;
  config.m_max = 1.05;
  config.m_bins = 21;
  config.e_kernel_fraction = 0.012;  // ~half an E bin
  config.m_kernel_fraction = 0.024;  // ~half an M bin
  return config;
}

TEST(JointDos, GeometryAccessors) {
  const JointDos dos(small_grid());
  EXPECT_EQ(dos.e_bins(), 42u);
  EXPECT_EQ(dos.m_bins(), 21u);
  EXPECT_NEAR(dos.e_center(0), -1.025, 1e-12);
  EXPECT_NEAR(dos.m_center(10), 0.0, 1e-12);
}

TEST(JointDos, VisitMarksCell) {
  JointDos dos(small_grid());
  EXPECT_TRUE(dos.visit(0.0, 0.0, 1.0));
  EXPECT_FALSE(dos.visit(0.0, 0.0, 1.0));
  EXPECT_EQ(dos.visited_cells(), 1u);
  EXPECT_EQ(dos.cell_hits(dos.e_bins() / 2, dos.m_bins() / 2), 2u);
}

TEST(JointDos, LnGBilinearInterpolationIsExactOnCenters) {
  JointDos dos(small_grid());
  dos.visit(dos.e_center(20), dos.m_center(10), 2.0);
  EXPECT_NEAR(dos.ln_g(dos.e_center(20), dos.m_center(10)), 2.0, 1e-10);
}

TEST(JointDos, FlatnessOverVisitedCells) {
  JointDos dos(small_grid());
  for (int round = 0; round < 30; ++round)
    for (std::size_t be = 10; be < 20; ++be)
      for (std::size_t bm = 5; bm < 15; ++bm)
        dos.visit(dos.e_center(be), dos.m_center(bm), 0.01);
  EXPECT_TRUE(dos.is_flat(0.9));
  EXPECT_DOUBLE_EQ(dos.flatness_ratio(), 1.0);  // 100 cells, 30 hits each
  // Heavily revisit one cell: imbalance breaks flatness.
  for (int k = 0; k < 2000; ++k)
    dos.visit(dos.e_center(12), dos.m_center(7), 0.01);
  EXPECT_FALSE(dos.is_flat(0.9));
  // min 30 over mean (99 * 30 + 2030) / 100 = 50.
  EXPECT_DOUBLE_EQ(dos.flatness_ratio(), 0.6);
}

TEST(JointDos, ContractViolations) {
  JointDos dos(small_grid());
  EXPECT_THROW(dos.visit(5.0, 0.0, 1.0), ContractError);
  EXPECT_THROW(dos.ln_g(0.0, 5.0), ContractError);
  EXPECT_THROW(dos.cell_ln_g(99, 0), ContractError);
}

TEST(JointWangLandau, InvalidConfigThrows) {
  // check_interval = 0 used to divide by zero on the first step (SIGFPE).
  const HeisenbergEnergy energy(heisenberg::HeisenbergModel(
      lattice::make_cubic_cluster(lattice::CubicLattice::kSimpleCubic, 1.0, 2,
                                  1, 1),
      {0.4}));
  const auto make = [&](const JointWangLandauConfig& config) {
    JointWangLandau sampler(energy, config,
                            std::make_unique<HalvingSchedule>(1.0, 1e-3),
                            Rng(1));
  };
  JointWangLandauConfig config;
  config.grid = small_grid();
  config.check_interval = 0;
  EXPECT_THROW(make(config), ContractError);
  config.check_interval = 100;
  for (double flatness : {0.0, 1.0, 2.0}) {
    config.flatness = flatness;
    EXPECT_THROW(make(config), ContractError) << "flatness " << flatness;
  }
}

class ConvergedAnisotropicDimer : public ::testing::Test {
 protected:
  // Two exchange-coupled moments with a shared easy axis: the minimal model
  // with a genuine switching barrier in M_z.
  static const JointWangLandau& sampler() {
    static const JointWangLandau cached = [] {
      auto structure = lattice::make_cubic_cluster(
          lattice::CubicLattice::kSimpleCubic, 1.0, 2, 1, 1);
      heisenberg::HeisenbergModel model(structure, {0.4});
      model.set_uniform_anisotropy(0.3, {0.0, 0.0, 1.0});
      static const HeisenbergEnergy energy{std::move(model)};

      JointWangLandauConfig config;
      config.grid.e_min = -1.45;
      config.grid.e_max = 0.75;
      config.grid.e_bins = 44;
      config.grid.m_min = -1.05;
      config.grid.m_max = 1.05;
      config.grid.m_bins = 21;
      config.grid.e_kernel_fraction = 0.012;
      config.grid.m_kernel_fraction = 0.024;
      config.flatness = 0.6;
      config.check_interval = 5000;
      config.max_iteration_steps = 2000000;
      config.max_steps = 80000000;
      JointWangLandau sampler(energy, config,
                              std::make_unique<HalvingSchedule>(1.0, 1e-4),
                              Rng(31));
      sampler.run();
      return sampler;
    }();
    return cached;
  }
};

TEST_F(ConvergedAnisotropicDimer, ExploresBothMagnetizationSigns) {
  const JointDos& dos = sampler().dos();
  bool positive = false;
  bool negative = false;
  for (std::size_t bm = 0; bm < dos.m_bins(); ++bm)
    for (std::size_t be = 0; be < dos.e_bins(); ++be)
      if (dos.cell_visited(be, bm)) {
        if (dos.m_center(bm) > 0.5) positive = true;
        if (dos.m_center(bm) < -0.5) negative = true;
      }
  EXPECT_TRUE(positive);
  EXPECT_TRUE(negative);
}

TEST_F(ConvergedAnisotropicDimer, DosIsSymmetricUnderMagnetizationFlip) {
  // The Hamiltonian is even in M_z; ln g(E, M) = ln g(E, -M) up to
  // statistical error. Compare column sums of ln g.
  const JointDos& dos = sampler().dos();
  const std::size_t mid = dos.m_bins() / 2;
  for (std::size_t offset = 2; offset + 1 < mid; offset += 3) {
    double plus = 0.0;
    double minus = 0.0;
    std::size_t cells = 0;
    for (std::size_t be = 0; be < dos.e_bins(); ++be) {
      if (!dos.cell_visited(be, mid + offset) ||
          !dos.cell_visited(be, mid - offset))
        continue;
      plus += dos.cell_ln_g(be, mid + offset);
      minus += dos.cell_ln_g(be, mid - offset);
      ++cells;
    }
    if (cells < 4) continue;
    EXPECT_NEAR(plus / static_cast<double>(cells),
                minus / static_cast<double>(cells),
                2.5)
        << "offset=" << offset;
  }
}

TEST_F(ConvergedAnisotropicDimer, TracksMagnetizationIncrementally) {
  EXPECT_NEAR(sampler().configuration().magnetization_z(),
              sampler().configuration().magnetization_z(), 0.0);
  EXPECT_GT(sampler().stats().total_steps, 0u);
}

}  // namespace
}  // namespace wlsms::wl
