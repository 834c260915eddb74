#pragma once

/// \file scheduler.hpp
/// The daemon's request scheduler: admission control over a bounded pending
/// queue with per-session quotas, round-robin batch formation across
/// sessions, and the batched solve itself.
///
/// Coalescing (DESIGN.md §12): every pending request is an independent
/// walker configuration of the same structure, so one batch of B requests
/// is B x N independent zone solves, which one LsmsSolver::solve_zones call
/// runs in one OpenMP loop — the paper's traffic shape (M walkers, shared
/// solver substrate) keeping every core busy. A lone pending request is a
/// batch of one through the same call, and because every zone solve is
/// the one energies() runs and every total is summed in atom order, any
/// batch returns energies bit-identical to the synchronous service.

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "lsms/solver.hpp"
#include "serve/protocol.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::serve {

/// Admission and batching knobs.
struct ServeLimits {
  /// Daemon-wide cap on accepted-but-uncompleted requests; submissions
  /// beyond it are rejected with kQueueFull (backpressure, not buffering).
  std::size_t max_pending = 256;
  /// Per-session outstanding quota; beyond it kQuotaExceeded.
  std::size_t max_session_outstanding = 64;
  /// Most requests one batched dispatch coalesces.
  std::size_t max_batch = 16;
  /// Latency budget: a pending request older than this forces a (possibly
  /// singleton) dispatch even if the batch is not full.
  std::chrono::milliseconds batch_window{5};
};

/// Session-aware batching scheduler over one LsmsSolver.
class BatchScheduler {
 public:
  enum class Admission { kAccepted, kQueueFull, kQuotaExceeded };

  /// One completed request, routed back by session. Carries the critical-
  /// path stage vector (queue_us/solve_us stamped here; serialize_us filled
  /// by the daemon at encode time) and the originating trace context plus
  /// admission timestamp, so the daemon can emit one serve.request span per
  /// request adopted under the client's driver span.
  struct Completed {
    std::uint64_t session = 0;
    wl::EnergyResult result;
    StageBreakdown stages;
    obs::TraceContext trace;
    std::uint64_t admitted_us = 0;  ///< obs::trace_now_us() at admission
  };

  /// Dispatch accounting, exposed for the bench and tests.
  struct Stats {
    std::uint64_t batches = 0;            ///< run_next_batch calls
    std::uint64_t batched_requests = 0;   ///< requests solved in multi-batches
    std::uint64_t singleton_requests = 0; ///< requests solved one-at-a-time
  };

  BatchScheduler(std::shared_ptr<const lsms::LsmsSolver> solver,
                 ServeLimits limits);

  /// Admission-controlled enqueue. On kAccepted the request is owned by the
  /// scheduler until run_next_batch completes it or take_session discards
  /// it.
  Admission submit(std::uint64_t session, wl::EnergyRequest request);

  std::size_t pending() const { return n_pending_; }
  std::size_t session_pending(std::uint64_t session) const;

  /// Enqueue time of the oldest pending request (nullopt when idle); the
  /// daemon schedules its poll timeout so the batch window expires on time.
  std::optional<std::chrono::steady_clock::time_point> oldest_pending_since()
      const;

  /// Forms the next batch — round-robin across sessions, one request per
  /// session per lap, up to max_batch — solves it, and appends the results
  /// to `out`. A failed batch of several (singular matrix) is retried
  /// request by request, so only the genuinely failing ones come back
  /// failed=true, as if each had been dispatched alone. No-op when nothing
  /// is pending.
  void run_next_batch(std::vector<Completed>& out);

  /// Discards every pending request of `session`: its connection closed,
  /// so nobody is left to deliver their results to.
  void take_session(std::uint64_t session);

  const Stats& stats() const { return stats_; }
  const ServeLimits& limits() const { return limits_; }
  std::size_t n_atoms() const { return solver_->n_atoms(); }

 private:
  struct Queued {
    wl::EnergyRequest request;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t admitted_us = 0;  ///< obs::trace_now_us() at admission
  };

  /// Total energies of `requests`, in order, from one solve_zones call
  /// over every zone of each (inside the lsms.batch_energies span).
  std::vector<double> solve(std::span<const Queued> requests) const;

  std::shared_ptr<const lsms::LsmsSolver> solver_;
  ServeLimits limits_;

  /// Ordered by session id for deterministic round-robin; the cursor
  /// rotates so one chatty session cannot starve the others.
  std::map<std::uint64_t, std::deque<Queued>> queues_;
  std::uint64_t cursor_ = 0;
  std::size_t n_pending_ = 0;
  Stats stats_;
};

}  // namespace wlsms::serve
