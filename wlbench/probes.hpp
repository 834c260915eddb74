#pragma once

/// \file probes.hpp
/// The benchmark's own instrumentation. Every timer, counter and span
/// (`wlbench.*`, recorded only while tracing is on) here sits around a call
/// into a public entry point of the program — the driver -> EnergyService
/// boundary, the exact service, EnergyFunction::total_energy, the worker
/// rank's channel, the status endpoint — so nothing under src/ is touched.
/// The program's own counters (obs registry, perf flop counters) and spans
/// are read alongside.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "comm/communicator.hpp"
#include "lsms/solver.hpp"
#include "obs/metrics.hpp"
#include "perf/flops.hpp"
#include "wl/energy_function.hpp"
#include "wl/energy_service.hpp"

namespace wlbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock. CLOCK_MONOTONIC is system-wide on
/// Linux, so stamps taken in forked worker ranks compare with the parent's.
std::int64_t now_ns();

/// Most phases one run measures: an untraced phase and a traced phase.
inline constexpr std::size_t kMaxPhases = 2;

/// Thrown out of WlDriver::run() by DriverBoundary::retrieve when the timed
/// window has closed. Deliberately not a std::exception, so nothing in the
/// program can catch it by accident.
struct WindowClosed {};

/// The timed region shared by every driver of one run. It opens once every
/// driver has received all of its seed results (set-up ends there), then
/// runs `phases` back-to-back phases of `phase_seconds` each. Boundaries
/// fire from whichever driver thread first enters retrieve() after one is
/// due; `on_boundary(k)` runs at the start of phase k, and k == phases is
/// the close. A rehearsal window (set-up repetitions) closes the moment it
/// would open. Thread-safe.
class Window {
 public:
  Window(std::size_t n_drivers, std::size_t phases, double phase_seconds,
         bool rehearsal);

  /// Called by a driver whose seeds are all back; blocks until every driver
  /// has arrived and the window is open.
  void arrive();

  /// Fires every boundary that is due. Returns the current phase, or -1
  /// once the window has closed.
  int poll();

  /// Closes the window at once and releases drivers blocked in arrive()
  /// (a driver thread that failed must not strand the others).
  void abort();

  /// Phase a result returned now belongs to (-1 outside the window).
  int phase() const { return phase_.load(std::memory_order_acquire); }
  bool opened() const { return opened_.load(std::memory_order_acquire); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }
  std::size_t phases() const { return phases_; }

  /// Boundary timestamps: t(0) = open, t(phases) = close.
  Clock::time_point t(std::size_t k) const { return times_[k]; }
  double phase_seconds(std::size_t k) const;

  /// Runs under the window lock at each boundary, before the phase changes.
  std::function<void(std::size_t)> on_boundary;

 private:
  void fire(std::size_t k, Clock::time_point now);

  const std::size_t n_drivers_;
  const std::size_t phases_;
  const Clock::duration phase_length_;
  const bool rehearsal_;
  std::mutex mutex_;
  std::condition_variable opened_cv_;
  std::size_t arrived_ = 0;
  std::atomic<int> phase_{-1};
  std::atomic<bool> opened_{false};
  std::atomic<bool> closed_{false};
  std::array<Clock::time_point, kMaxPhases + 1> times_{};
};

/// Per-phase relaxed counters, written by one thread, read by any.
struct PhaseCounters {
  std::array<std::atomic<std::uint64_t>, kMaxPhases> values{};
  void add(int phase, std::uint64_t n) {
    if (phase >= 0)
      values[static_cast<std::size_t>(phase)].fetch_add(
          n, std::memory_order_relaxed);
  }
  std::uint64_t operator[](std::size_t phase) const {
    return values[phase].load(std::memory_order_relaxed);
  }
};

/// The driver -> EnergyService boundary: the outermost decorator of every
/// topology. It holds the driver out of the timed window until its seeds
/// are back, ends WlDriver::run() by throwing WindowClosed, and counts what
/// the driver sees: results, failures, and the time spent inside service
/// calls (the rest of the timed wall is driver self time).
class DriverBoundary final : public wlsms::wl::EnergyService {
 public:
  DriverBoundary(std::unique_ptr<wlsms::wl::EnergyService> inner,
                 std::size_t n_walkers, Window& window);

  void submit(wlsms::wl::EnergyRequest request) override;
  wlsms::wl::EnergyResult retrieve() override;
  std::size_t outstanding() const override { return inner_->outstanding(); }

  wlsms::wl::EnergyService& inner() { return *inner_; }

  /// Called at every retrieve() entry on the driver thread, before the
  /// window check (used for the deterministic digest of fe16_speculative).
  std::function<void()> on_retrieve;

  PhaseCounters submitted;    ///< requests posted in the window
  PhaseCounters steps;        ///< non-failed results (all trials in-window)
  PhaseCounters failed;       ///< failed results
  PhaseCounters service_ns;   ///< wall inside submit/retrieve
  PhaseCounters blocked_ns;   ///< wall inside retrieve alone

 private:
  std::unique_ptr<wlsms::wl::EnergyService> inner_;
  Window& window_;
  const std::size_t n_walkers_;
  std::unordered_set<std::uint64_t> seed_tickets_;
  std::size_t seeds_back_ = 0;
  bool arrived_ = false;
};

/// One exact result kept for the after-run recheck.
struct EnergySample {
  wlsms::spin::MomentConfiguration config;
  double energy = 0.0;
};

/// One exact request's latency at the exact-service boundary.
struct LatencySample {
  int phase = 0;
  std::uint64_t ticket = 0;
  std::int64_t submit_ns = 0;
  std::int64_t result_ns = 0;
  double ms() const { return static_cast<double>(result_ns - submit_ns) / 1e6; }
};

/// Decorator directly around an exact service (synchronous, distributed,
/// serve client). Records submit -> result latency per ticket, counts exact
/// results and the time spent inside its calls, and keeps a deterministic
/// sample of returned energies (every `sample_stride`-th in-window result,
/// at most `max_samples`) for the after-run recheck.
class ExactBoundary final : public wlsms::wl::EnergyService {
 public:
  ExactBoundary(std::unique_ptr<wlsms::wl::EnergyService> inner,
                const Window& window, std::size_t sample_stride,
                std::size_t max_samples);

  void submit(wlsms::wl::EnergyRequest request) override;
  wlsms::wl::EnergyResult retrieve() override;
  std::size_t outstanding() const override { return inner_->outstanding(); }

  PhaseCounters results;     ///< non-failed exact results in the window
  PhaseCounters service_ns;  ///< wall inside submit/retrieve

  /// Driver-thread-only; read after the driver has stopped.
  const std::vector<LatencySample>& latencies() const { return latencies_; }
  const std::vector<EnergySample>& samples() const { return samples_; }

 private:
  struct Pending {
    std::int64_t submit_ns = 0;
    std::uint64_t submit_us = 0;  ///< obs::trace_now_us(), for the span
    wlsms::spin::MomentConfiguration config;
  };
  std::unique_ptr<wlsms::wl::EnergyService> inner_;
  const Window& window_;
  const std::size_t sample_stride_;
  const std::size_t max_samples_;
  std::map<std::uint64_t, Pending> pending_;
  std::vector<LatencySample> latencies_;
  std::vector<EnergySample> samples_;
  std::uint64_t in_window_ = 0;
};

/// Timed EnergyFunction decorator: wall time and count of total_energy
/// calls (the lsms layer of the in-process topologies).
class TimedEnergy final : public wlsms::wl::EnergyFunction {
 public:
  TimedEnergy(const wlsms::wl::EnergyFunction& inner, const Window& window);

  std::size_t n_sites() const override { return inner_.n_sites(); }
  double total_energy(
      const wlsms::spin::MomentConfiguration& moments) const override;
  std::uint64_t flops_per_evaluation() const override {
    return inner_.flops_per_evaluation();
  }

  mutable PhaseCounters calls;
  mutable PhaseCounters ns;

 private:
  const wlsms::wl::EnergyFunction& inner_;
  const Window& window_;
};

/// What one worker rank did for one shard request, measured in the rank
/// around its channel: receive of the ShardRequest to send of the
/// ShardResult, and the flops retired in between.
struct RankRecord {
  std::uint64_t ticket = 0;
  std::int64_t recv_ns = 0;
  std::int64_t send_ns = 0;
  std::array<std::uint64_t, wlsms::perf::kKernelCount> flops{};
};

/// WorkerChannel decorator run inside a forked worker rank: wraps the real
/// channel that run_shard_worker talks to and records one RankRecord per
/// shard request.
class RankProbeChannel final : public wlsms::comm::WorkerChannel {
 public:
  explicit RankProbeChannel(wlsms::comm::WorkerChannel& inner);

  std::size_t rank() const override { return inner_.rank(); }
  void send(const wlsms::comm::Message& message) override;
  std::optional<wlsms::comm::Message> recv() override;

  const std::vector<RankRecord>& records() const { return records_; }

 private:
  wlsms::comm::WorkerChannel& inner_;
  std::vector<RankRecord> records_;
  bool open_ = false;  ///< a request was received and not yet answered
  wlsms::perf::FlopWindow flops_;
};

/// Worker ranks the benchmark forks itself for the TCP transport, each
/// dialling the controller like an external `wlsms worker --connect` and
/// running run_shard_worker behind a RankProbeChannel. Each rank writes its
/// records to a pipe when the controller closes its channel. The owner
/// reaps every child in collect() (or the destructor).
class RankFleet {
 public:
  RankFleet() = default;
  ~RankFleet();
  RankFleet(const RankFleet&) = delete;
  RankFleet& operator=(const RankFleet&) = delete;

  /// Forks `n_ranks` workers dialling `address`; call from the controller's
  /// on_listening hook.
  void spawn(std::size_t n_ranks, const std::string& address,
             std::shared_ptr<const wlsms::lsms::LsmsSolver> solver);

  /// Reads every rank's records and waits for every child to exit. Call
  /// after the controller has shut down. Returns false if a rank failed.
  bool collect();

  const std::vector<RankRecord>& records() const { return records_; }

 private:
  struct Child {
    int pid = -1;
    int fd = -1;
  };
  std::vector<Child> children_;
  std::vector<RankRecord> records_;
};

/// Probes a Prometheus status endpoint (`wlsms status` conversation) from
/// its own thread while the window is open. Open loop: one probe is due
/// every `interval`, and each is timed from its due time, so a stalled
/// endpoint is charged for the probes that queue behind the stall.
class StatusProber {
 public:
  StatusProber(std::string address, const Window& window,
               std::chrono::milliseconds interval);
  ~StatusProber();
  StatusProber(const StatusProber&) = delete;
  StatusProber& operator=(const StatusProber&) = delete;

  /// Stops probing and joins the thread; returns the samples [ms] by phase.
  std::array<std::vector<double>, kMaxPhases> finish();
  std::uint64_t failures() const { return failures_.load(); }

 private:
  void loop();

  const std::string address_;
  const Window& window_;
  const std::chrono::milliseconds interval_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> failures_{0};
  std::array<std::vector<double>, kMaxPhases> samples_;
  std::thread thread_;
};

// ---- statistics helpers --------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of unsorted values; 0 if empty.
double quantile(std::vector<double> values, double q);

/// Samples strictly above the q-quantile.
std::size_t count_above(const std::vector<double>& values, double q);

/// Quantile of the observations a histogram gained between two snapshots,
/// interpolated log-linearly inside the bucket (the serve stage histograms
/// have factor-4 exponential buckets). 0 when nothing was observed.
double histogram_quantile(const wlsms::obs::HistogramSnapshot& before,
                          const wlsms::obs::HistogramSnapshot& after,
                          double q);

/// Peak RSS of this process plus the largest reaped child [MiB].
double peak_rss_mib();

}  // namespace wlbench
