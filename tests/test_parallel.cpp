// Tests for the thread pool, the asynchronous energy service, and the
// failure-injection decorator.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <atomic>
#include <cmath>
#include <set>

#include "comm/factory.hpp"
#include "heisenberg/heisenberg.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "parallel/async_service.hpp"
#include "parallel/failure.hpp"
#include "parallel/thread_pool.hpp"
#include "thermo/observables.hpp"
#include "wl/driver.hpp"

namespace wlsms::parallel {
namespace {

TEST(ThreadPool, ExecutesEveryTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int k = 0; k < 1000; ++k)
      pool.post([&counter] { counter.fetch_add(1); });
    // Destructor drains the queue.
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, TasksRunConcurrentlyWithPoster) {
  std::atomic<bool> ran{false};
  ThreadPool pool(2);
  pool.post([&ran] { ran.store(true); });
  // Wait for completion without joining.
  for (int spin = 0; spin < 10000 && !ran.load(); ++spin)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ZeroThreadsThrows) {
  EXPECT_THROW(ThreadPool{0}, ContractError);
}

wl::HeisenbergEnergy fe16_energy() {
  std::vector<double> j = lsms::fe_reference_exchange();
  for (double& v : j) v *= lsms::fe_exchange_energy_scale;
  return wl::HeisenbergEnergy(
      heisenberg::HeisenbergModel(lattice::make_fe_supercell(2), j));
}

TEST(AsyncEnergyService, CompletesAllRequestsWithCorrectEnergies) {
  const wl::HeisenbergEnergy energy = fe16_energy();
  AsyncEnergyService service(energy, 4);
  Rng rng(1);
  std::vector<spin::MomentConfiguration> configs;
  constexpr std::uint64_t kRequests = 64;
  for (std::uint64_t t = 0; t < kRequests; ++t) {
    configs.push_back(spin::MomentConfiguration::random(16, rng));
    service.submit({t % 8, t, configs.back()});
  }
  std::set<std::uint64_t> seen;
  for (std::uint64_t k = 0; k < kRequests; ++k) {
    const wl::EnergyResult result = service.retrieve();
    EXPECT_FALSE(result.failed);
    EXPECT_TRUE(seen.insert(result.ticket).second);
    EXPECT_NEAR(result.energy, energy.total_energy(configs[result.ticket]),
                1e-12);
    EXPECT_EQ(result.walker, result.ticket % 8);
  }
  EXPECT_EQ(service.outstanding(), 0u);
}

TEST(AsyncEnergyService, ConcurrentLsmsCallersMatchSerialEnergiesBitwise) {
  // Four instance threads call one LsmsSolver at once. A built solver never
  // changes, so every result must be == the energies().total the same
  // configuration gives when solved alone.
  const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(2), lsms::fe_lsms_parameters_fast());
  const wl::LsmsEnergy energy(solver);
  Rng rng(21);
  constexpr std::uint64_t kRequests = 24;
  std::vector<spin::MomentConfiguration> configs;
  std::vector<double> serial;
  for (std::uint64_t t = 0; t < kRequests; ++t) {
    configs.push_back(spin::MomentConfiguration::random(16, rng));
    serial.push_back(solver->energies(configs.back()).total);
  }

  comm::EnergyServiceSpec spec;
  spec.kind = comm::ServiceKind::kAsyncThreads;
  spec.energy = &energy;
  spec.n_instances = 4;
  const std::unique_ptr<wl::EnergyService> service =
      comm::make_energy_service(spec);
  for (std::uint64_t t = 0; t < kRequests; ++t)
    service->submit({t % 8, t, configs[t]});
  EXPECT_EQ(service->outstanding(), kRequests);
  std::set<std::uint64_t> seen;
  for (std::uint64_t k = 0; k < kRequests; ++k) {
    const wl::EnergyResult result = service->retrieve();
    EXPECT_FALSE(result.failed);
    ASSERT_LT(result.ticket, kRequests);
    EXPECT_TRUE(seen.insert(result.ticket).second);
    EXPECT_EQ(result.energy, serial[result.ticket])
        << "ticket " << result.ticket;
  }
  EXPECT_EQ(service->outstanding(), 0u);
}

TEST(AsyncEnergyService, OutstandingTracksInFlightWork) {
  const wl::HeisenbergEnergy energy = fe16_energy();
  AsyncEnergyService service(energy, 2);
  Rng rng(2);
  for (std::uint64_t t = 0; t < 10; ++t)
    service.submit({0, t, spin::MomentConfiguration::random(16, rng)});
  for (int k = 10; k > 0; --k) {
    EXPECT_EQ(service.outstanding(), static_cast<std::size_t>(k));
    (void)service.retrieve();
  }
  EXPECT_EQ(service.outstanding(), 0u);
}

TEST(AsyncEnergyService, DrivesWangLandauEndToEnd) {
  // Full asynchronous stack: WL driver + thread-pool instances. Short
  // schedule; checks convergence machinery, not final physics precision.
  const wl::HeisenbergEnergy energy = fe16_energy();
  AsyncEnergyService service(energy, 4);

  Rng window_rng(5);
  wl::WangLandauConfig config;
  config.grid = wl::thermal_window(
      energy, energy.model().ferromagnetic_energy(), 150.0, window_rng);
  config.n_walkers = 4;
  config.check_interval = 5000;
  config.max_iteration_steps = 500000;
  config.max_steps = 20000000;

  wl::WlDriver driver(16, service, config,
                      std::make_unique<wl::HalvingSchedule>(1.0, 1e-3),
                      Rng(3));
  const wl::DriverStats& stats = driver.run();
  EXPECT_TRUE(driver.schedule().converged());
  EXPECT_EQ(stats.iterations, 10u);  // 2^-10 <= 1e-3
  const thermo::DosTable table = thermo::dos_table(driver.dos());
  const double u900 = thermo::observables_at(table, 900.0).internal_energy;
  EXPECT_NEAR(u900, -0.100, 0.02);  // Metropolis reference band (loose)
}

TEST(FailureInjection, RespectsProbability) {
  const wl::HeisenbergEnergy energy = fe16_energy();
  FailureInjectingService service(
      std::make_unique<wl::SynchronousEnergyService>(energy), 0.25, Rng(7));
  Rng rng(8);
  constexpr int kTotal = 4000;
  int failures = 0;
  for (int t = 0; t < kTotal; ++t) {
    service.submit({0, static_cast<std::uint64_t>(t),
                    spin::MomentConfiguration::random(16, rng)});
    if (service.retrieve().failed) ++failures;
  }
  EXPECT_EQ(service.injected_failures(), static_cast<std::uint64_t>(failures));
  EXPECT_NEAR(static_cast<double>(failures) / kTotal, 0.25, 0.03);
}

TEST(FailureInjection, ZeroProbabilityIsTransparent) {
  const wl::HeisenbergEnergy energy = fe16_energy();
  FailureInjectingService service(
      std::make_unique<wl::SynchronousEnergyService>(energy), 0.0, Rng(9));
  Rng rng(10);
  service.submit({0, 1, spin::MomentConfiguration::random(16, rng)});
  EXPECT_FALSE(service.retrieve().failed);
  EXPECT_EQ(service.injected_failures(), 0u);
}

TEST(FailureInjection, InvalidProbabilityThrows) {
  const wl::HeisenbergEnergy energy = fe16_energy();
  for (const double p : {1.0, -0.1})
    EXPECT_THROW(FailureInjectingService(
                     std::make_unique<wl::SynchronousEnergyService>(energy),
                     p, Rng(1)),
                 ContractError)
        << p;
}

TEST(AsyncEnergyService, RetrieveWithoutOutstandingThrows) {
  const wl::HeisenbergEnergy energy = fe16_energy();
  AsyncEnergyService service(energy, 2);
  EXPECT_THROW(service.retrieve(), Error);
  Rng rng(11);
  service.submit({0, 1, spin::MomentConfiguration::random(16, rng)});
  (void)service.retrieve();
  EXPECT_THROW(service.retrieve(), Error);
}

TEST(FailureInjection, RetrieveWithoutOutstandingThrows) {
  const wl::HeisenbergEnergy energy = fe16_energy();
  FailureInjectingService service(
      std::make_unique<wl::SynchronousEnergyService>(energy), 0.5, Rng(12));
  // Empty both ways: no failure notices pending and nothing in the inner
  // service — forwarding blindly would violate the inner contract instead
  // of this one.
  EXPECT_THROW(service.retrieve(), Error);
}

}  // namespace
}  // namespace wlsms::parallel
