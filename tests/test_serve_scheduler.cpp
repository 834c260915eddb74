// BatchScheduler unit tests: admission control (bounded pending queue +
// per-session quota), round-robin fairness across sessions, the singleton
// fallback under light load, take_session teardown, and — the load-bearing
// property — batched energies bit-identical to the synchronous reference
// service.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"

namespace wlsms::serve {
namespace {

std::shared_ptr<const lsms::LsmsSolver> small_solver() {
  static const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(2), lsms::fe_lsms_parameters_fast());
  return solver;
}

wl::EnergyRequest request_for(std::uint64_t ticket, Rng& rng) {
  wl::EnergyRequest request;
  request.walker = static_cast<std::size_t>(ticket % 4);
  request.ticket = ticket;
  request.config =
      spin::MomentConfiguration::random(small_solver()->n_atoms(), rng);
  return request;
}

TEST(ServeScheduler, AdmissionEnforcesQuotaAndQueueBound) {
  ServeLimits limits;
  limits.max_pending = 4;
  limits.max_session_outstanding = 2;
  limits.max_batch = 4;
  BatchScheduler scheduler(small_solver(), limits);
  Rng rng(601);

  using Admission = BatchScheduler::Admission;
  EXPECT_EQ(scheduler.submit(1, request_for(1, rng)), Admission::kAccepted);
  EXPECT_EQ(scheduler.submit(1, request_for(2, rng)), Admission::kAccepted);
  // Session 1 is at its quota; the daemon-wide queue still has room.
  EXPECT_EQ(scheduler.submit(1, request_for(3, rng)),
            Admission::kQuotaExceeded);
  EXPECT_EQ(scheduler.submit(2, request_for(4, rng)), Admission::kAccepted);
  EXPECT_EQ(scheduler.submit(3, request_for(5, rng)), Admission::kAccepted);
  EXPECT_EQ(scheduler.pending(), 4u);
  // Queue full beats quota: session 4 has no outstanding work but the
  // daemon-wide bound is reached.
  EXPECT_EQ(scheduler.submit(4, request_for(6, rng)), Admission::kQueueFull);
  EXPECT_EQ(scheduler.session_pending(1), 2u);
  EXPECT_EQ(scheduler.session_pending(4), 0u);
}

TEST(ServeScheduler, RoundRobinKeepsChattySessionFromFillingTheBatch) {
  ServeLimits limits;
  limits.max_pending = 32;
  limits.max_session_outstanding = 16;
  limits.max_batch = 4;
  BatchScheduler scheduler(small_solver(), limits);
  Rng rng(602);

  std::uint64_t ticket = 1;
  for (int k = 0; k < 6; ++k)
    scheduler.submit(1, request_for(ticket++, rng));
  for (int k = 0; k < 2; ++k)
    scheduler.submit(2, request_for(ticket++, rng));
  for (int k = 0; k < 2; ++k)
    scheduler.submit(3, request_for(ticket++, rng));

  std::vector<BatchScheduler::Completed> completed;
  scheduler.run_next_batch(completed);
  ASSERT_EQ(completed.size(), 4u);
  std::size_t from_session_1 = 0;
  bool saw_2 = false, saw_3 = false;
  for (const BatchScheduler::Completed& done : completed) {
    if (done.session == 1) ++from_session_1;
    if (done.session == 2) saw_2 = true;
    if (done.session == 3) saw_3 = true;
  }
  // One request per session per lap: sessions 2 and 3 each get a slot in
  // the first batch even though session 1 queued three times as much.
  EXPECT_EQ(from_session_1, 2u);
  EXPECT_TRUE(saw_2);
  EXPECT_TRUE(saw_3);
  EXPECT_EQ(scheduler.pending(), 6u);
}

TEST(ServeScheduler, LonePendingRequestTakesTheSingletonPath) {
  ServeLimits limits;
  BatchScheduler scheduler(small_solver(), limits);
  Rng rng(603);
  scheduler.submit(1, request_for(1, rng));

  std::vector<BatchScheduler::Completed> completed;
  scheduler.run_next_batch(completed);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_FALSE(completed.front().result.failed);
  EXPECT_EQ(scheduler.stats().singleton_requests, 1u);
  EXPECT_EQ(scheduler.stats().batched_requests, 0u);
}

TEST(ServeScheduler, BatchedEnergiesMatchSynchronousServiceBitExactly) {
  ServeLimits limits;
  limits.max_batch = 8;
  limits.max_session_outstanding = 8;
  BatchScheduler scheduler(small_solver(), limits);

  Rng rng(604);
  std::vector<wl::EnergyRequest> requests;
  for (std::uint64_t t = 1; t <= 12; ++t)
    requests.push_back(request_for(t, rng));
  for (std::size_t k = 0; k < requests.size(); ++k)
    ASSERT_EQ(scheduler.submit(1 + k % 3, requests[k]),
              BatchScheduler::Admission::kAccepted);

  std::vector<BatchScheduler::Completed> completed;
  while (scheduler.pending() > 0) scheduler.run_next_batch(completed);
  ASSERT_EQ(completed.size(), requests.size());
  EXPECT_GT(scheduler.stats().batched_requests, 0u);

  const wl::LsmsEnergy reference(small_solver());
  wl::SynchronousEnergyService sync(reference);
  for (const BatchScheduler::Completed& done : completed) {
    ASSERT_FALSE(done.result.failed);
    const wl::EnergyRequest& request = requests[done.result.ticket - 1];
    sync.submit(request);
    const wl::EnergyResult expected = sync.retrieve();
    EXPECT_EQ(done.result.energy, expected.energy)
        << "ticket " << done.result.ticket;
  }
}

TEST(ServeScheduler, TakeSessionRemovesExactlyThatSessionsRequests) {
  ServeLimits limits;
  limits.max_session_outstanding = 8;
  BatchScheduler scheduler(small_solver(), limits);
  Rng rng(605);
  for (std::uint64_t t = 1; t <= 3; ++t)
    scheduler.submit(5, request_for(t, rng));
  scheduler.submit(6, request_for(10, rng));

  scheduler.take_session(5);
  EXPECT_EQ(scheduler.pending(), 1u);
  EXPECT_EQ(scheduler.session_pending(5), 0u);
  EXPECT_EQ(scheduler.session_pending(6), 1u);
  scheduler.take_session(5);  // a closed session is a no-op
  EXPECT_EQ(scheduler.pending(), 1u);

  // Only session 6's request is ever solved.
  std::vector<BatchScheduler::Completed> out;
  scheduler.run_next_batch(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().session, 6u);
  EXPECT_EQ(out.front().result.ticket, 10u);
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(ServeScheduler, OldestPendingDrivesTheBatchWindow) {
  ServeLimits limits;
  BatchScheduler scheduler(small_solver(), limits);
  EXPECT_FALSE(scheduler.oldest_pending_since().has_value());
  Rng rng(606);
  const auto before = std::chrono::steady_clock::now();
  scheduler.submit(1, request_for(1, rng));
  const auto oldest = scheduler.oldest_pending_since();
  ASSERT_TRUE(oldest.has_value());
  EXPECT_GE(*oldest, before);
  EXPECT_LE(*oldest, std::chrono::steady_clock::now());
}

}  // namespace
}  // namespace wlsms::serve
