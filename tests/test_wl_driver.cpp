// Tests for the asynchronous master-slave driver (paper Alg. 1 / Fig. 3):
// out-of-order tolerance and node-loss resilience.
#include "wl/driver.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <cmath>

#include "common/units.hpp"
#include "lattice/cluster.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "parallel/failure.hpp"
#include "thermo/observables.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::wl {
namespace {

HeisenbergEnergy fe16_energy() {
  std::vector<double> j = lsms::fe_reference_exchange();
  for (double& v : j) v *= lsms::fe_exchange_energy_scale;
  return HeisenbergEnergy(
      heisenberg::HeisenbergModel(lattice::make_fe_supercell(2), j));
}

WangLandauConfig driver_config(const HeisenbergEnergy& energy) {
  Rng rng(5);
  WangLandauConfig config;
  config.grid =
      thermal_window(energy, energy.model().ferromagnetic_energy(), 150.0, rng);
  config.n_walkers = 8;
  config.check_interval = 5000;
  config.flatness = 0.8;
  config.max_iteration_steps = 1000000;
  config.max_steps = 60000000;
  return config;
}

double converged_u900(EnergyService& service, const WangLandauConfig& config,
                      std::uint64_t seed, DriverStats* stats_out = nullptr) {
  WlDriver driver(16, service, config,
                  std::make_unique<HalvingSchedule>(1.0, 1e-5), Rng(seed));
  const DriverStats& stats = driver.run();
  if (stats_out) *stats_out = stats;
  const thermo::DosTable table = thermo::dos_table(driver.dos());
  return thermo::observables_at(table, 900.0).internal_energy;
}

TEST(WlDriver, ConvergesWithSynchronousService) {
  HeisenbergEnergy energy = fe16_energy();
  const WangLandauConfig config = driver_config(energy);
  SynchronousEnergyService service(energy);
  DriverStats stats;
  const double u = converged_u900(service, config, 1, &stats);
  EXPECT_GT(stats.total_steps, 100000u);
  EXPECT_EQ(service.outstanding(), 0u);  // drained on exit
  // Physical band for the 16-atom surrogate at 900 K (Metropolis: -0.100).
  EXPECT_NEAR(u, -0.100, 0.012);
}

TEST(WlDriver, OutOfOrderResultsGiveSamePhysics) {
  // §II-C: results "might arrive in an order that differs from the one in
  // which they were submitted ... this has no negative effect on the
  // convergence of the method."
  HeisenbergEnergy energy = fe16_energy();
  const WangLandauConfig config = driver_config(energy);
  ReorderingEnergyService service(energy, Rng(77));
  const double u = converged_u900(service, config, 2);
  EXPECT_NEAR(u, -0.100, 0.012);
}

TEST(WlDriver, SurvivesInjectedNodeFailures) {
  // §V outlook: resilience to the loss of processing nodes. 2 % of all
  // submissions are lost; the driver must resubmit them and still converge
  // to the right physics.
  HeisenbergEnergy energy = fe16_energy();
  const WangLandauConfig config = driver_config(energy);
  parallel::FailureInjectingService service(
      std::make_unique<SynchronousEnergyService>(energy), 0.02, Rng(5));
  DriverStats stats;
  const double u = converged_u900(service, config, 3, &stats);
  EXPECT_GT(stats.resubmissions, 0u);
  // Every resubmission answers a retrieved failure notice; the only notices
  // *not* resubmitted are those drained after convergence, at most one per
  // walker (one request in flight each).
  EXPECT_LE(stats.resubmissions, service.injected_failures());
  EXPECT_LE(service.injected_failures() - stats.resubmissions,
            config.n_walkers);
  EXPECT_EQ(service.outstanding(), 0u);
  EXPECT_NEAR(u, -0.100, 0.012);
}

TEST(WlDriver, ConvergesToExactDosUnderHeavyFailureRate) {
  // Regression for the outstanding() accounting of the failure decorator: a
  // lost submission must stay visible through outstanding() until its
  // failure notice is retrieved. Before the fix, outstanding() forwarded to
  // the inner service only, so the driver's retrieve/drain loops could stop
  // with notices — i.e. resubmittable work — still queued, which at a 20 %
  // loss rate starves walkers and stalls or corrupts the run. With correct
  // accounting the driver converges to the exactly known single-bond
  // physics even when every fifth submission dies.
  const auto structure = lattice::make_cubic_cluster(
      lattice::CubicLattice::kSimpleCubic, 1.0, 2, 1, 1);
  const HeisenbergEnergy energy(
      heisenberg::HeisenbergModel(structure, {1.0}));

  WangLandauConfig config;
  config.grid = {-1.02, 1.02, 102, 0.005};
  config.n_walkers = 4;
  config.check_interval = 2000;
  config.flatness = 0.8;
  config.max_iteration_steps = 300000;
  config.max_steps = 40000000;

  parallel::FailureInjectingService service(
      std::make_unique<SynchronousEnergyService>(energy), 0.2, Rng(41));
  WlDriver driver(2, service, config,
                  std::make_unique<HalvingSchedule>(1.0, 1e-5), Rng(42));
  const DriverStats& stats = driver.run();
  EXPECT_TRUE(driver.schedule().converged());
  EXPECT_GT(stats.resubmissions, stats.total_steps / 10);  // ~20 % were lost
  EXPECT_EQ(service.outstanding(), 0u);

  const thermo::DosTable table = thermo::dos_table(driver.dos());
  const double langevin_1 = 1.0 / std::tanh(1.0) - 1.0;
  const double t = 1.0 / units::k_boltzmann_ry;
  EXPECT_NEAR(thermo::observables_at(table, t).internal_energy, -langevin_1,
              0.03);
}

TEST(WlDriver, StepCountsExcludeSeedingAndResubmissions) {
  HeisenbergEnergy energy = fe16_energy();
  WangLandauConfig config = driver_config(energy);
  config.max_steps = 1000;
  SynchronousEnergyService service(energy);
  WlDriver driver(16, service, config,
                  std::make_unique<HalvingSchedule>(1.0, 1e-8), Rng(4));
  const DriverStats& stats = driver.run();
  EXPECT_GE(stats.total_steps, 1000u);
  EXPECT_LE(stats.total_steps, 1000u + config.n_walkers);
}

TEST(WlDriver, InvalidConfigThrows) {
  // check_interval = 0 used to make run() spin forever (every sweep's target
  // equalled the current step count); flatness outside (0, 1) can never be
  // met or always is. All are refused before any request is posted.
  HeisenbergEnergy energy = fe16_energy();
  SynchronousEnergyService service(energy);
  const auto make = [&](const WangLandauConfig& config) {
    WlDriver driver(16, service, config,
                    std::make_unique<HalvingSchedule>(1.0, 1e-3), Rng(1));
  };
  WangLandauConfig config = driver_config(energy);
  config.check_interval = 0;
  EXPECT_THROW(make(config), ContractError);
  for (double flatness : {0.0, 1.0, 1.5, -0.2}) {
    config = driver_config(energy);
    config.flatness = flatness;
    EXPECT_THROW(make(config), ContractError) << "flatness " << flatness;
  }
  config = driver_config(energy);
  config.n_walkers = 0;
  EXPECT_THROW(make(config), ContractError);
  EXPECT_EQ(service.outstanding(), 0u);
}

TEST(WlDriver, AllWalkersParticipate) {
  // With a synchronous FIFO service every walker's requests interleave;
  // acceptance bookkeeping must stay within totals.
  HeisenbergEnergy energy = fe16_energy();
  WangLandauConfig config = driver_config(energy);
  config.max_steps = 20000;
  SynchronousEnergyService service(energy);
  WlDriver driver(16, service, config,
                  std::make_unique<HalvingSchedule>(1.0, 1e-8), Rng(6));
  const DriverStats& stats = driver.run();
  EXPECT_LE(stats.accepted_steps, stats.total_steps);
  EXPECT_LE(stats.out_of_range, stats.total_steps);
  EXPECT_EQ(driver.n_walkers(), 8u);
}

TEST(EnergyService, SynchronousIsFifo) {
  HeisenbergEnergy energy = fe16_energy();
  SynchronousEnergyService service(energy);
  Rng rng(1);
  for (std::uint64_t t = 0; t < 5; ++t)
    service.submit({t % 2, t, spin::MomentConfiguration::random(16, rng)});
  EXPECT_EQ(service.outstanding(), 5u);
  for (std::uint64_t t = 0; t < 5; ++t) {
    const EnergyResult result = service.retrieve();
    EXPECT_EQ(result.ticket, t);
    EXPECT_FALSE(result.failed);
  }
  EXPECT_EQ(service.outstanding(), 0u);
}

TEST(EnergyService, ReorderingPermutesResults) {
  HeisenbergEnergy energy = fe16_energy();
  ReorderingEnergyService service(energy, Rng(3));
  Rng rng(2);
  constexpr int kBatch = 64;
  for (std::uint64_t t = 0; t < kBatch; ++t)
    service.submit({0, t, spin::MomentConfiguration::random(16, rng)});
  bool out_of_order = false;
  std::uint64_t previous = 0;
  for (int k = 0; k < kBatch; ++k) {
    const EnergyResult result = service.retrieve();
    if (k > 0 && result.ticket < previous) out_of_order = true;
    previous = result.ticket;
  }
  EXPECT_TRUE(out_of_order);
}

TEST(EnergyService, ReorderedEnergiesAreStillCorrect) {
  HeisenbergEnergy energy = fe16_energy();
  ReorderingEnergyService service(energy, Rng(9));
  Rng rng(8);
  std::vector<spin::MomentConfiguration> configs;
  for (std::uint64_t t = 0; t < 16; ++t) {
    configs.push_back(spin::MomentConfiguration::random(16, rng));
    service.submit({0, t, configs.back()});
  }
  for (int k = 0; k < 16; ++k) {
    const EnergyResult result = service.retrieve();
    EXPECT_NEAR(result.energy, energy.total_energy(configs[result.ticket]),
                1e-12);
  }
}

TEST(EnergyService, RetrieveWithoutOutstandingThrows) {
  HeisenbergEnergy energy = fe16_energy();
  SynchronousEnergyService service(energy);
  // Every EnergyService throws a wlsms::Error on an empty retrieve; the
  // concrete type here is the contract violation.
  EXPECT_THROW(service.retrieve(), ContractError);
  EXPECT_THROW(service.retrieve(), Error);
}

TEST(EnergyService, ReorderingRetrieveWithoutOutstandingThrows) {
  HeisenbergEnergy energy = fe16_energy();
  ReorderingEnergyService service(energy, Rng(5));
  EXPECT_THROW(service.retrieve(), Error);
  // Draining exactly what was submitted re-arms the contract.
  Rng rng(6);
  service.submit({0, 1, spin::MomentConfiguration::random(16, rng)});
  (void)service.retrieve();
  EXPECT_THROW(service.retrieve(), Error);
}

}  // namespace
}  // namespace wlsms::wl
