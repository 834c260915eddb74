// The tentpole acceptance property: N walkers' energies computed through
// the batching scheduler are IDENTICAL (==, not approximately) to computing
// each alone through SynchronousEnergyService — at batch sizes 1, 2, 7, and
// 64, both in-process ("thread transport": the scheduler driven directly)
// and over a real TCP daemon with a ServeClient.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/scheduler.hpp"

namespace wlsms::serve {
namespace {

constexpr std::size_t kBatchSizes[] = {1, 2, 7, 64};

std::shared_ptr<const lsms::LsmsSolver> small_solver() {
  static const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(2), lsms::fe_lsms_parameters_fast());
  return solver;
}

std::vector<wl::EnergyRequest> make_requests(std::size_t count,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<wl::EnergyRequest> requests;
  requests.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    wl::EnergyRequest request;
    request.walker = k;  // every request its own walker: N independent walkers
    request.ticket = k + 1;
    request.config =
        spin::MomentConfiguration::random(small_solver()->n_atoms(), rng);
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Per-walker reference energies through the synchronous service.
std::vector<double> reference_energies(
    const std::vector<wl::EnergyRequest>& requests) {
  const wl::LsmsEnergy energy(small_solver());
  wl::SynchronousEnergyService sync(energy);
  std::vector<double> energies(requests.size());
  for (const wl::EnergyRequest& request : requests) {
    sync.submit(request);
    const wl::EnergyResult result = sync.retrieve();
    energies[result.ticket - 1] = result.energy;
  }
  return energies;
}

TEST(ServeParity, SchedulerMatchesSynchronousAtEveryBatchSize) {
  for (const std::size_t batch_size : kBatchSizes) {
    ServeLimits limits;
    limits.max_pending = batch_size + 8;
    limits.max_session_outstanding = batch_size;
    limits.max_batch = batch_size;
    BatchScheduler scheduler(small_solver(), limits);

    const std::vector<wl::EnergyRequest> requests =
        make_requests(batch_size, 700 + batch_size);
    const std::vector<double> expected = reference_energies(requests);

    for (const wl::EnergyRequest& request : requests)
      ASSERT_EQ(scheduler.submit(1, request),
                BatchScheduler::Admission::kAccepted);
    std::vector<BatchScheduler::Completed> completed;
    while (scheduler.pending() > 0) scheduler.run_next_batch(completed);

    ASSERT_EQ(completed.size(), batch_size);
    for (const BatchScheduler::Completed& done : completed) {
      ASSERT_FALSE(done.result.failed);
      EXPECT_EQ(done.result.energy, expected[done.result.ticket - 1])
          << "batch size " << batch_size << ", ticket " << done.result.ticket;
    }
    if (batch_size > 1)
      EXPECT_EQ(scheduler.stats().batched_requests, batch_size);
    else
      EXPECT_EQ(scheduler.stats().singleton_requests, 1u);
  }
}

TEST(ServeParity, TcpDaemonMatchesSynchronousAtEveryBatchSize) {
  for (const std::size_t batch_size : kBatchSizes) {
    ServeOptions options;
    options.listen = "127.0.0.1:0";
    options.limits.max_pending = batch_size + 8;
    options.limits.max_session_outstanding = batch_size;
    options.limits.max_batch = batch_size;
    options.limits.batch_window = std::chrono::milliseconds(200);

    Daemon daemon(small_solver(), options);
    std::thread server([&daemon] { daemon.run(); });

    const std::vector<wl::EnergyRequest> requests =
        make_requests(batch_size, 800 + batch_size);
    const std::vector<double> expected = reference_energies(requests);

    {
      ClientOptions client_options;
      client_options.tenant = "parity";
      ServeClient client(daemon.address(), client_options);
      EXPECT_EQ(client.n_atoms(), small_solver()->n_atoms());
      for (const wl::EnergyRequest& request : requests)
        client.submit(request);
      std::size_t received = 0;
      while (client.outstanding() > 0) {
        const wl::EnergyResult result = client.retrieve();
        ASSERT_FALSE(result.failed) << "ticket " << result.ticket;
        EXPECT_EQ(result.energy, expected[result.ticket - 1])
            << "batch size " << batch_size << ", ticket " << result.ticket;
        ++received;
      }
      EXPECT_EQ(received, batch_size);
    }

    daemon.stop();
    server.join();
    if (batch_size > 1) {
      EXPECT_EQ(daemon.scheduler_stats().batched_requests, batch_size);
    }
  }
}

}  // namespace
}  // namespace wlsms::serve
