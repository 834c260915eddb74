// Concurrency soak tests for the parallel layer. These are the primary
// targets of the `tsan` and `asan-ubsan` CMake presets (`ctest -L sanitize`):
// they push enough work through the ThreadPool and through the
// FailureInjectingService over the thread-backed DistributedEnergyService
// that data races, lock-order problems and lost wakeups have a realistic
// chance of being exercised, and they assert the protocol invariant that
// matters to the Wang-Landau driver — every submitted ticket is retrieved
// exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "comm/distributed_service.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "parallel/failure.hpp"
#include "parallel/thread_pool.hpp"

namespace wlsms::parallel {
namespace {

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

TEST(ParallelStress, FailureSoakDeliversEveryLogicalRequestExactlyOnce) {
  // ~10^4 logical energy requests through the failure decorator (20 % loss)
  // over the distributed service on 2 groups x 2 rank threads, resubmitting
  // every failure under a fresh ticket — the same discipline WlDriver uses.
  // Each logical request must produce exactly one *successful* result; at
  // the end nothing may remain outstanding.
  const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(1), lsms::fe_lsms_parameters_fast());
  comm::DistributedConfig topology;
  topology.n_groups = 2;
  topology.group_size = 2;
  topology.transport = comm::Transport::kInProcess;
  FailureInjectingService service(
      std::make_unique<comm::DistributedEnergyService>(solver, topology), 0.2,
      Rng(31));
  Rng rng(32);

  constexpr std::uint64_t kLogical = 10000;
  constexpr std::size_t kWindow = 256;  // in-flight cap

  std::vector<spin::MomentConfiguration> configs;
  configs.reserve(kLogical);
  for (std::uint64_t id = 0; id < kLogical; ++id)
    configs.push_back(
        spin::MomentConfiguration::random(solver->n_atoms(), rng));

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
