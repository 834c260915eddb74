// Concurrency soak tests for the parallel layer. These are the primary
// targets of the `tsan` and `asan-ubsan` CMake presets (`ctest -L sanitize`):
// they push enough work through the ThreadPool / AsyncEnergyService /
// FailureInjectingService stack that data races, lock-order problems and
// lost wakeups have a realistic chance of being exercised, and they assert
// the protocol invariant that matters to the Wang-Landau driver — every
// submitted ticket is retrieved exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "heisenberg/heisenberg.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "parallel/async_service.hpp"
#include "parallel/failure.hpp"
#include "parallel/thread_pool.hpp"

namespace wlsms::parallel {
namespace {

wl::HeisenbergEnergy fe16_energy() {
  std::vector<double> j = lsms::fe_reference_exchange();
  for (double& v : j) v *= lsms::fe_exchange_energy_scale;
  return wl::HeisenbergEnergy(
      heisenberg::HeisenbergModel(lattice::make_fe_supercell(2), j));
}

TEST(ParallelStress, ThreadPoolSoakFromConcurrentPosters) {
  // 4 posting threads x 2500 tasks against a 4-worker pool; every task must
  // run exactly once even while post() races with the worker loop.
  constexpr int kPosters = 4;
  constexpr int kTasksPerPoster = 2500;
  std::atomic<int> executed{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> posters;
    posters.reserve(kPosters);
    for (int p = 0; p < kPosters; ++p)
      posters.emplace_back([&pool, &executed] {
        for (int k = 0; k < kTasksPerPoster; ++k)
          pool.post([&executed] { executed.fetch_add(1); });
      });
    for (std::thread& poster : posters) poster.join();
    // ~ThreadPool drains the queue before joining the workers.
  }
  EXPECT_EQ(executed.load(), kPosters * kTasksPerPoster);
}

TEST(ParallelStress, AsyncServiceConcurrentRetrievers) {
  // All requests are posted first, then 4 threads drain the completion
  // queue concurrently. Tickets must partition exactly: no result lost, no
  // result delivered twice.
  const wl::HeisenbergEnergy energy = fe16_energy();
  AsyncEnergyService service(energy, 4);
  Rng rng(21);
  constexpr std::uint64_t kRequests = 2000;
  constexpr int kRetrievers = 4;
  for (std::uint64_t t = 0; t < kRequests; ++t)
    service.submit({t % 8, t, spin::MomentConfiguration::random(16, rng)});

  std::vector<std::vector<std::uint64_t>> tickets(kRetrievers);
  std::vector<std::thread> retrievers;
  retrievers.reserve(kRetrievers);
  for (int r = 0; r < kRetrievers; ++r)
    retrievers.emplace_back([&service, &tickets, r] {
      for (std::uint64_t k = 0; k < kRequests / kRetrievers; ++k) {
        const wl::EnergyResult result = service.retrieve();
        EXPECT_FALSE(result.failed);
        tickets[static_cast<std::size_t>(r)].push_back(result.ticket);
      }
    });
  for (std::thread& retriever : retrievers) retriever.join();

  std::set<std::uint64_t> seen;
  for (const auto& slice : tickets)
    for (std::uint64_t ticket : slice) EXPECT_TRUE(seen.insert(ticket).second);
  EXPECT_EQ(seen.size(), kRequests);
  EXPECT_EQ(service.outstanding(), 0u);
}

TEST(ParallelStress, FailureSoakDeliversEveryLogicalRequestExactlyOnce) {
  // ~10^4 logical energy requests through the failure decorator (20 % loss)
  // over the real thread-pool service, resubmitting every failure under a
  // fresh ticket — the same discipline WlDriver uses. Each logical request
  // must produce exactly one *successful* result; at the end nothing may
  // remain outstanding.
  const wl::HeisenbergEnergy energy = fe16_energy();
  FailureInjectingService service(
      std::make_unique<AsyncEnergyService>(energy, 4), 0.2, Rng(31));
  Rng rng(32);

  constexpr std::uint64_t kLogical = 10000;
  constexpr std::size_t kWindow = 256;  // in-flight cap

  std::vector<spin::MomentConfiguration> configs;
  configs.reserve(kLogical);
  for (std::uint64_t id = 0; id < kLogical; ++id)
    configs.push_back(spin::MomentConfiguration::random(16, rng));

  std::map<std::uint64_t, std::uint64_t> ticket_to_logical;
  std::vector<int> successes(kLogical, 0);
  std::uint64_t next_ticket = 0;
  std::uint64_t next_logical = 0;
  std::uint64_t resubmissions = 0;

  const auto submit_logical = [&](std::uint64_t id) {
    ticket_to_logical[next_ticket] = id;
    service.submit({static_cast<std::size_t>(id % 8), next_ticket,
                    configs[id]});
    ++next_ticket;
  };

  while (next_logical < kLogical && service.outstanding() < kWindow)
    submit_logical(next_logical++);

  while (service.outstanding() > 0) {
    const wl::EnergyResult result = service.retrieve();
    const auto entry = ticket_to_logical.find(result.ticket);
    ASSERT_NE(entry, ticket_to_logical.end());
    const std::uint64_t id = entry->second;
    ticket_to_logical.erase(entry);
    if (result.failed) {
      ++resubmissions;
      submit_logical(id);  // lost instance: resubmit the same configuration
    } else {
      ++successes[id];
    }
    if (next_logical < kLogical) submit_logical(next_logical++);
  }

  for (std::uint64_t id = 0; id < kLogical; ++id)
    ASSERT_EQ(successes[id], 1) << "logical request " << id;
  EXPECT_EQ(service.outstanding(), 0u);
  EXPECT_EQ(service.injected_failures(), resubmissions);
  // With p = 0.2 the resubmission rate should be near 25 % of the logical
  // count (geometric retries: p / (1 - p)).
  EXPECT_NEAR(static_cast<double>(resubmissions) / kLogical, 0.25, 0.05);
}

}  // namespace
}  // namespace wlsms::parallel
