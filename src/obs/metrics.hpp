#pragma once

/// \file metrics.hpp
/// Process-wide metrics registry: named counters, gauges, and fixed-bucket
/// histograms — the software analogue of the paper's PAPI counter harness,
/// generalized from flops (src/perf keeps those) to run health: WL
/// acceptance rates, comm reroutes, retrieve latencies, serve queue
/// depths.
///
/// Concurrency model: every writer-side operation lands in a thread-local
/// shard (one relaxed atomic per thread per metric), so hot-path cost is a
/// thread-local cache lookup plus one uncontended atomic add — cheap enough
/// for call-granularity instrumentation and clean under tsan. snapshot()
/// aggregates shards; with all writers quiescent the aggregate equals the
/// exact sum of every recorded operation (no sampling, no loss — shards of
/// exited threads are retained by the owning metric).
///
/// Lifetime: metrics are created through Registry::instance() and are never
/// destroyed (the registry is a leaked singleton), so cached references and
/// thread-local shard pointers stay valid for the life of the process.
/// fork() discipline: the registry installs pthread_atfork handlers that
/// hold every metric mutex across the fork, so worker ranks the TCP
/// transport spawns with fork() can keep instrumenting without inheriting a
/// mutex locked by a vanished thread.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wlsms::obs {

/// Monotonic event count, sharded per thread.
class Counter {
 public:
  void add(std::uint64_t n);
  void inc() { add(1); }

  /// Sum over all shards. Exact when writers are quiescent; otherwise a
  /// consistent lower bound of the operations that happened-before the call.
  std::uint64_t value() const;

 private:
  friend class Registry;
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  struct Shard;
  Shard& shard();

  mutable std::mutex mutex_;                   ///< guards shards_ growth
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Last-writer-wins instantaneous value (acceptance rate, ln f, queue depth).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  std::atomic<double> value_{0.0};
};

/// Point-in-time aggregate of one histogram.
struct HistogramSnapshot {
  /// Finite bucket upper bounds (strictly increasing). counts has one more
  /// entry than upper_bounds: the final bucket collects every observation
  /// above the last bound (and NaN, which compares into no finite bucket).
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;  ///< sum of counts
  double sum = 0.0;         ///< sum of finite observed values
};

/// Fixed-bucket histogram, sharded per thread. A value v lands in the first
/// bucket whose upper bound satisfies v <= bound ("le" semantics: a value
/// exactly on a boundary belongs to the bucket it bounds); values above the
/// last bound — and NaN — land in the overflow bucket.
class Histogram {
 public:
  void observe(double value);
  const std::vector<double>& upper_bounds() const { return bounds_; }
  HistogramSnapshot snapshot_values() const;

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  struct Shard;
  Shard& shard();

  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Aggregate view of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// The process-wide name -> metric table. Lookups take a mutex; hot call
/// sites cache the returned reference in a function-local static.
class Registry {
 public:
  static Registry& instance();

  /// Returns the counter registered under `name`, creating it on first use.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Returns the histogram registered under `name`, creating it with the
  /// given finite bucket upper bounds (strictly increasing, non-empty) on
  /// first use. Re-registration with different bounds throws wlsms::Error.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Aggregates every metric. Exact iff writers are quiescent.
  MetricsSnapshot snapshot() const;

  /// Zeroes every counter/histogram shard and every gauge. Testing and
  /// benchmarking only; callers must ensure no concurrent writers.
  void reset_values_for_testing();

 private:
  Registry() = default;

  void lock_for_fork();
  void unlock_after_fork();
  static void install_fork_handlers();

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace wlsms::obs
