#include "probes.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "comm/distributed_service.hpp"
#include "comm/wire.hpp"
#include "obs/trace.hpp"
#include "serve/status.hpp"

namespace wlbench {

namespace wl = wlsms::wl;
namespace comm = wlsms::comm;
namespace perf = wlsms::perf;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

namespace {

std::uint64_t elapsed_ns(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

}  // namespace

// ---- Window ---------------------------------------------------------------

Window::Window(std::size_t n_drivers, std::size_t phases, double phase_seconds,
               bool rehearsal)
    : n_drivers_(n_drivers),
      phases_(phases),
      phase_length_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(phase_seconds))),
      rehearsal_(rehearsal) {}

void Window::arrive() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (++arrived_ < n_drivers_) {
    opened_cv_.wait(lock, [&] { return opened(); });
    return;
  }
  const Clock::time_point now = Clock::now();
  if (rehearsal_) {
    times_[0] = now;
    opened_.store(true, std::memory_order_release);
    closed_.store(true, std::memory_order_release);
  } else {
    fire(0, now);
    opened_.store(true, std::memory_order_release);
  }
  opened_cv_.notify_all();
}

void Window::fire(std::size_t k, Clock::time_point now) {
  times_[k] = now;
  if (on_boundary) on_boundary(k);
  if (k == phases_) {
    closed_.store(true, std::memory_order_release);
    phase_.store(-1, std::memory_order_release);
  } else {
    phase_.store(static_cast<int>(k), std::memory_order_release);
  }
}

int Window::poll() {
  if (closed()) return -1;
  const Clock::time_point now = Clock::now();
  const int p = phase();
  if (p < 0) return -1;
  if (now < times_[static_cast<std::size_t>(p)] + phase_length_) return p;
  std::lock_guard<std::mutex> lock(mutex_);
  while (!closed() &&
         now >= times_[static_cast<std::size_t>(phase())] + phase_length_)
    fire(static_cast<std::size_t>(phase()) + 1, now);
  return phase();
}

void Window::abort() {
  std::lock_guard<std::mutex> lock(mutex_);
  opened_.store(true, std::memory_order_release);
  closed_.store(true, std::memory_order_release);
  phase_.store(-1, std::memory_order_release);
  opened_cv_.notify_all();
}

double Window::phase_seconds(std::size_t k) const {
  return std::chrono::duration<double>(times_[k + 1] - times_[k]).count();
}

// ---- DriverBoundary -----------------------------------------------------

DriverBoundary::DriverBoundary(std::unique_ptr<wl::EnergyService> inner,
                               std::size_t n_walkers, Window& window)
    : inner_(std::move(inner)), window_(window), n_walkers_(n_walkers) {}

void DriverBoundary::submit(wl::EnergyRequest request) {
  const int p = window_.phase();
  // Seeds (and reposts of failed seeds) are the hintless requests.
  if (!request.hint.valid) seed_tickets_.insert(request.ticket);
  const Clock::time_point t0 = Clock::now();
  inner_->submit(std::move(request));
  service_ns.add(p, elapsed_ns(t0));
  submitted.add(p, 1);
}

wl::EnergyResult DriverBoundary::retrieve() {
  if (on_retrieve) on_retrieve();
  if (!arrived_ && seeds_back_ == n_walkers_) {
    arrived_ = true;
    window_.arrive();
  }
  if (arrived_ && window_.poll() < 0) throw WindowClosed{};
  const int p = window_.phase();
  const Clock::time_point t0 = Clock::now();
  wl::EnergyResult result = [&] {
    const wlsms::obs::Span span("wlbench.driver_retrieve");
    return inner_->retrieve();
  }();
  const std::uint64_t ns = elapsed_ns(t0);
  if (!arrived_) {
    if (!result.failed && seed_tickets_.erase(result.ticket) > 0) ++seeds_back_;
  } else if (result.failed) {
    failed.add(p, 1);
  } else {
    steps.add(p, 1);
  }
  service_ns.add(p, ns);
  blocked_ns.add(p, ns);
  return result;
}

// ---- ExactBoundary --------------------------------------------------------

ExactBoundary::ExactBoundary(std::unique_ptr<wl::EnergyService> inner,
                             const Window& window, std::size_t sample_stride,
                             std::size_t max_samples)
    : inner_(std::move(inner)),
      window_(window),
      sample_stride_(std::max<std::size_t>(1, sample_stride)),
      max_samples_(max_samples) {}

void ExactBoundary::submit(wl::EnergyRequest request) {
  pending_[request.ticket] =
      Pending{now_ns(), wlsms::obs::trace_now_us(), request.config};
  const Clock::time_point t0 = Clock::now();
  inner_->submit(std::move(request));
  service_ns.add(window_.phase(), elapsed_ns(t0));
}

wl::EnergyResult ExactBoundary::retrieve() {
  const Clock::time_point t0 = Clock::now();
  wl::EnergyResult result = inner_->retrieve();
  const std::int64_t done_ns = now_ns();
  const int p = window_.phase();
  service_ns.add(p, elapsed_ns(t0));
  auto it = pending_.find(result.ticket);
  if (it == pending_.end()) return result;
  // One span per exact request, submit to result (it straddles calls).
  wlsms::obs::emit_span("wlbench.exact_request", it->second.submit_us,
                        wlsms::obs::trace_now_us());
  if (p >= 0 && !result.failed) {
    results.add(p, 1);
    latencies_.push_back({p, result.ticket, it->second.submit_ns, done_ns});
    if (in_window_++ % sample_stride_ == 0 && samples_.size() < max_samples_)
      samples_.push_back({std::move(it->second.config), result.energy});
  }
  pending_.erase(it);
  return result;
}

// ---- TimedEnergy ----------------------------------------------------------

TimedEnergy::TimedEnergy(const wl::EnergyFunction& inner, const Window& window)
    : inner_(inner), window_(window) {}

double TimedEnergy::total_energy(
    const wlsms::spin::MomentConfiguration& moments) const {
  const Clock::time_point t0 = Clock::now();
  const double e = [&] {
    const wlsms::obs::Span span("wlbench.total_energy");
    return inner_.total_energy(moments);
  }();
  const int p = window_.phase();
  ns.add(p, elapsed_ns(t0));
  calls.add(p, 1);
  return e;
}

// ---- worker ranks ---------------------------------------------------------

RankProbeChannel::RankProbeChannel(comm::WorkerChannel& inner)
    : inner_(inner) {}

std::optional<comm::Message> RankProbeChannel::recv() {
  std::optional<comm::Message> message = inner_.recv();
  if (message && message->tag == comm::kTagShardRequest) {
    RankRecord record;
    record.recv_ns = now_ns();
    record.ticket = comm::decode_shard_request(message->payload).ticket;
    records_.push_back(record);
    open_ = true;
    flops_ = perf::FlopWindow{};
  }
  return message;
}

void RankProbeChannel::send(const comm::Message& message) {
  if (open_ && message.tag == comm::kTagShardResult) {
    RankRecord& record = records_.back();
    record.send_ns = now_ns();
    for (std::size_t k = 0; k < perf::kKernelCount; ++k)
      record.flops[k] = flops_.elapsed(static_cast<perf::Kernel>(k));
    open_ = false;
  }
  inner_.send(message);
}

namespace {

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t wrote = ::write(fd, p, n);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    p += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
  return true;
}

std::vector<char> read_all(int fd) {
  std::vector<char> bytes;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  return bytes;
}

}  // namespace

RankFleet::~RankFleet() {
  for (const Child& child : children_) {
    ::kill(child.pid, SIGKILL);
    ::close(child.fd);
    int status = 0;
    ::waitpid(child.pid, &status, 0);
  }
}

void RankFleet::spawn(std::size_t n_ranks, const std::string& address,
                      std::shared_ptr<const wlsms::lsms::LsmsSolver> solver) {
  std::fflush(nullptr);
  for (std::size_t r = 0; r < n_ranks; ++r) {
    int fds[2];
    if (::pipe(fds) != 0)
      throw comm::CommError(std::string("pipe: ") + std::strerror(errno));
    const pid_t pid = ::fork();
    if (pid < 0)
      throw comm::CommError(std::string("fork: ") + std::strerror(errno));
    if (pid == 0) {
      ::close(fds[0]);
      int status = 0;
      try {
        std::vector<RankRecord> records;
        comm::run_tcp_worker(address, [&](comm::WorkerChannel& channel) {
          RankProbeChannel probe(channel);
          comm::run_shard_worker(probe, solver);
          records = probe.records();
        });
        const std::uint64_t count = records.size();
        if (!write_all(fds[1], &count, sizeof(count)) ||
            !write_all(fds[1], records.data(),
                       records.size() * sizeof(RankRecord)))
          status = 1;
      } catch (...) {
        status = 1;
      }
      ::_exit(status);
    }
    ::close(fds[1]);
    children_.push_back({pid, fds[0]});
  }
}

bool RankFleet::collect() {
  bool ok = true;
  for (const Child& child : children_) {
    const std::vector<char> bytes = read_all(child.fd);
    ::close(child.fd);
    int status = 0;
    while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    std::uint64_t count = 0;
    if (bytes.size() < sizeof(count)) {
      ok = false;
      continue;
    }
    std::memcpy(&count, bytes.data(), sizeof(count));
    if (bytes.size() != sizeof(count) + count * sizeof(RankRecord)) {
      ok = false;
      continue;
    }
    const std::size_t first = records_.size();
    records_.resize(first + count);
    std::memcpy(records_.data() + first, bytes.data() + sizeof(count),
                count * sizeof(RankRecord));
  }
  children_.clear();
  return ok;
}

// ---- StatusProber ---------------------------------------------------------

StatusProber::StatusProber(std::string address, const Window& window,
                           std::chrono::milliseconds interval)
    : address_(std::move(address)),
      window_(window),
      interval_(interval),
      thread_([this] { loop(); }) {}

StatusProber::~StatusProber() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void StatusProber::loop() {
  // Open loop: probe k is due at open + k * interval and is timed from its
  // due time, so an endpoint that stalls is charged for every probe that
  // queued behind the stall, not just the one it was answering.
  std::optional<Clock::time_point> due;
  while (!stop_.load()) {
    if (window_.phase() < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (!due) due = Clock::now();
    // Short sleeps so finish() never waits long for the thread.
    while (!stop_.load() && Clock::now() < *due)
      std::this_thread::sleep_for(std::min<Clock::duration>(
          *due - Clock::now(), std::chrono::milliseconds(5)));
    const int p = window_.phase();
    if (stop_.load() || p < 0) continue;
    try {
      (void)wlsms::serve::fetch_status(address_);
      samples_[static_cast<std::size_t>(p)].push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - *due)
              .count());
    } catch (const std::exception&) {
      failures_.fetch_add(1);
    }
    *due += interval_;
  }
}

std::array<std::vector<double>, kMaxPhases> StatusProber::finish() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return samples_;
}

// ---- statistics -----------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::size_t count_above(const std::vector<double>& values, double q) {
  const double cut = quantile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

double histogram_quantile(const wlsms::obs::HistogramSnapshot& before,
                          const wlsms::obs::HistogramSnapshot& after,
                          double q) {
  const std::vector<double>& bounds = after.upper_bounds;
  std::vector<double> counts(after.counts.size(), 0.0);
  double total = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t had = b < before.counts.size() ? before.counts[b] : 0;
    counts[b] = static_cast<double>(after.counts[b] - had);
    total += counts[b];
  }
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] <= 0.0 || cumulative + counts[b] < target) {
      cumulative += counts[b];
      continue;
    }
    const double frac = (target - cumulative) / counts[b];
    const double lower = b == 0 ? 0.0 : bounds[b - 1];
    const double upper =
        b < bounds.size() ? bounds[b] : bounds.back() * 4.0;  // overflow
    if (lower <= 0.0) return upper * frac;
    return lower * std::pow(upper / lower, frac);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

double peak_rss_mib() {
  struct rusage self{};
  struct rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

}  // namespace wlbench
