// Tests for the thread pool, concurrent callers of one LSMS solver, and the
// failure-injection decorator.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "heisenberg/heisenberg.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "parallel/failure.hpp"
#include "parallel/thread_pool.hpp"
#include "wl/energy_service.hpp"

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

TEST(ConcurrentSolver, FourThreadsMatchSerialEnergiesBitwise) {
  // Four plain threads call one LsmsSolver at once, as WindowRunner's
  // windows do through a shared LsmsEnergy. A built solver never changes,
  // so every result must be == the energies().total the same configuration
  // gives when solved alone.
  const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(2), lsms::fe_lsms_parameters_fast());
  Rng rng(21);
  constexpr std::size_t kRequests = 24;
  constexpr std::size_t kThreads = 4;
  std::vector<spin::MomentConfiguration> configs;
  std::vector<double> serial;
  for (std::size_t t = 0; t < kRequests; ++t) {
    configs.push_back(spin::MomentConfiguration::random(16, rng));
    serial.push_back(solver->energies(configs.back()).total);
  }

  std::vector<double> concurrent(kRequests, 0.0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kThreads; ++c)
    callers.emplace_back([&, c] {
      for (std::size_t t = c; t < kRequests; t += kThreads)
        concurrent[t] = solver->energies(configs[t]).total;
    });
  for (std::thread& caller : callers) caller.join();
  for (std::size_t t = 0; t < kRequests; ++t)
    EXPECT_EQ(concurrent[t], serial[t]) << "request " << t;
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
