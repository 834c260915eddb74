#include "serve/scheduler.hpp"

#include <memory>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"

namespace wlsms::serve {

namespace {

struct SchedulerMetrics {
  obs::Counter& accepted;
  obs::Counter& rejects_queue_full;
  obs::Counter& rejects_quota;
  obs::Counter& batches;
  obs::Counter& batch_failures;
  obs::Gauge& pending;
  obs::Histogram& batch_occupancy;
  obs::Histogram& request_latency_ms;
};

SchedulerMetrics& scheduler_metrics() {
  static SchedulerMetrics metrics{
      obs::Registry::instance().counter("serve.accepted"),
      obs::Registry::instance().counter("serve.rejects_queue_full"),
      obs::Registry::instance().counter("serve.rejects_quota"),
      obs::Registry::instance().counter("serve.batches"),
      obs::Registry::instance().counter("serve.batch_failures"),
      obs::Registry::instance().gauge("serve.pending"),
      obs::Registry::instance().histogram(
          "serve.batch_occupancy",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0}),
      obs::Registry::instance().histogram(
          "serve.request_latency_ms",
          obs::exponential_bounds(0.1, 2.0, 16)),
  };
  return metrics;
}

}  // namespace

BatchScheduler::BatchScheduler(std::shared_ptr<const lsms::LsmsSolver> solver,
                               ServeLimits limits)
    : solver_(std::move(solver)), limits_(limits) {
  WLSMS_EXPECTS(solver_ != nullptr);
  WLSMS_EXPECTS(limits_.max_pending >= 1);
  WLSMS_EXPECTS(limits_.max_session_outstanding >= 1);
  WLSMS_EXPECTS(limits_.max_batch >= 1);
}

BatchScheduler::Admission BatchScheduler::submit(std::uint64_t session,
                                                 wl::EnergyRequest request) {
  SchedulerMetrics& metrics = scheduler_metrics();
  if (n_pending_ >= limits_.max_pending) {
    metrics.rejects_queue_full.inc();
    return Admission::kQueueFull;
  }
  std::deque<Queued>& queue = queues_[session];
  if (queue.size() >= limits_.max_session_outstanding) {
    if (queue.empty()) queues_.erase(session);
    metrics.rejects_quota.inc();
    return Admission::kQuotaExceeded;
  }
  request.session = session;
  queue.push_back({std::move(request), std::chrono::steady_clock::now(),
                   obs::trace_now_us()});
  ++n_pending_;
  metrics.accepted.inc();
  metrics.pending.set(static_cast<double>(n_pending_));
  return Admission::kAccepted;
}

std::size_t BatchScheduler::session_pending(std::uint64_t session) const {
  const auto it = queues_.find(session);
  return it == queues_.end() ? 0 : it->second.size();
}

std::optional<std::chrono::steady_clock::time_point>
BatchScheduler::oldest_pending_since() const {
  std::optional<std::chrono::steady_clock::time_point> oldest;
  for (const auto& [session, queue] : queues_)
    if (!queue.empty() &&
        (!oldest || queue.front().enqueued < *oldest))
      oldest = queue.front().enqueued;
  return oldest;
}

std::vector<double> BatchScheduler::solve(
    std::span<const Queued> requests) const {
  const obs::Span span("lsms.batch_energies");
  std::vector<lsms::ZoneJob> jobs;
  jobs.reserve(requests.size());
  for (const Queued& queued : requests)
    jobs.push_back({&queued.request.config, solver_->all_zones()});
  std::vector<double> totals;
  totals.reserve(requests.size());
  for (const lsms::LocalEnergies& energies : solver_->solve_zones(jobs))
    totals.push_back(energies.total);
  return totals;
}

void BatchScheduler::run_next_batch(std::vector<Completed>& out) {
  if (n_pending_ == 0) return;
  const obs::Span span("serve.batch");
  SchedulerMetrics& metrics = scheduler_metrics();

  // Round-robin batch formation: walk sessions in id order starting past
  // the cursor, taking the oldest request of each, lap after lap, until the
  // batch is full or the queues are dry. One chatty session fills at most
  // its fair share per lap, so light tenants keep their latency.
  std::vector<Queued> batch;
  batch.reserve(std::min(limits_.max_batch, n_pending_));
  bool took_any = true;
  while (took_any && batch.size() < limits_.max_batch) {
    took_any = false;
    auto it = queues_.upper_bound(cursor_);
    for (std::size_t visited = 0;
         visited < queues_.size() && batch.size() < limits_.max_batch;
         ++visited, ++it) {
      if (it == queues_.end()) it = queues_.begin();
      if (it->second.empty()) continue;
      batch.push_back(std::move(it->second.front()));
      it->second.pop_front();
      cursor_ = it->first;
      took_any = true;
    }
  }
  for (auto it = queues_.begin(); it != queues_.end();)
    it = it->second.empty() ? queues_.erase(it) : std::next(it);
  if (batch.empty()) return;
  n_pending_ -= batch.size();
  metrics.pending.set(static_cast<double>(n_pending_));
  ++stats_.batches;
  metrics.batches.inc();
  metrics.batch_occupancy.observe(static_cast<double>(batch.size()));
  const std::uint64_t batch_formed_us = obs::trace_now_us();

  const auto complete = [&](const Queued& queued, double energy,
                            bool failed) {
    Completed done;
    done.session = queued.request.session;
    done.result.walker = queued.request.walker;
    done.result.ticket = queued.request.ticket;
    done.result.energy = energy;
    done.result.failed = failed;
    done.trace = queued.request.trace;
    done.admitted_us = queued.admitted_us;
    // Stage vector: admitted -> batch formed is queue wait, batch formed ->
    // now is the solve (per-request stamps; the daemon adds serialize_us).
    const std::uint64_t solved_us = obs::trace_now_us();
    done.stages.queue_us = batch_formed_us > queued.admitted_us
                               ? batch_formed_us - queued.admitted_us
                               : 0;
    done.stages.solve_us =
        solved_us > batch_formed_us ? solved_us - batch_formed_us : 0;
    out.push_back(std::move(done));
    metrics.request_latency_ms.observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - queued.enqueued)
            .count());
  };

  // Light load dispatches a batch of one through the same call.
  const bool lone = batch.size() == 1;
  try {
    const std::vector<double> totals = solve(batch);
    if (lone)
      ++stats_.singleton_requests;
    else
      stats_.batched_requests += batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i)
      complete(batch[i], totals[i], false);
    return;
  } catch (const linalg::SingularMatrixError&) {
    if (lone) {
      ++stats_.singleton_requests;
      complete(batch.front(), 0.0, true);
      return;
    }
  }
  // One singular member matrix abandons the co-batched solves mid-flight;
  // retry each request alone so only the truly singular ones fail.
  metrics.batch_failures.inc();
  for (const Queued& queued : batch) {
    ++stats_.singleton_requests;
    try {
      complete(queued, solve({&queued, 1}).front(), false);
    } catch (const linalg::SingularMatrixError&) {
      complete(queued, 0.0, true);
    }
  }
}

void BatchScheduler::take_session(std::uint64_t session) {
  const auto it = queues_.find(session);
  if (it == queues_.end()) return;
  n_pending_ -= it->second.size();
  queues_.erase(it);
  scheduler_metrics().pending.set(static_cast<double>(n_pending_));
}

}  // namespace wlsms::serve
