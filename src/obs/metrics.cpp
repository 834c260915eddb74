#include "obs/metrics.hpp"

#include <pthread.h>

#include <cmath>
#include <unordered_map>

#include "common/error.hpp"

namespace wlsms::obs {

namespace {

// Per-thread cache from metric address to that thread's shard. Metrics are
// never destroyed (leaked-singleton registry), so entries can never dangle;
// shards are owned by the metric, so a thread may exit without losing its
// contribution.
thread_local std::unordered_map<const void*, void*> tl_shards;

void* find_shard(const void* metric) {
  const auto it = tl_shards.find(metric);
  return it == tl_shards.end() ? nullptr : it->second;
}

// Exact-regardless-of-interleaving double accumulation would require
// fixed-point; a CAS loop at least makes each add atomic (no lost updates),
// which keeps histogram sums exact whenever the observed values sum exactly
// in floating point (e.g. integer-valued latencies in the tests).
void atomic_add_double(std::atomic<double>& slot, double delta) {
  double expected = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(expected, expected + delta,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Counter

struct Counter::Shard {
  alignas(64) std::atomic<std::uint64_t> value{0};
};

Counter::Shard& Counter::shard() {
  if (void* cached = find_shard(this))
    return *static_cast<Shard*>(cached);
  const std::scoped_lock lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* fresh = shards_.back().get();
  tl_shards[this] = fresh;
  return *fresh;
}

void Counter::add(std::uint64_t n) {
  shard().value.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  const std::scoped_lock lock(mutex_);
  std::uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_)
    total += shard->value.load(std::memory_order_relaxed);
  return total;
}

// ---------------------------------------------------------------------------
// Histogram

struct Histogram::Shard {
  explicit Shard(std::size_t n_buckets) : counts(n_buckets) {}
  std::vector<std::atomic<std::uint64_t>> counts;  ///< incl. overflow bucket
  std::atomic<double> sum{0.0};
};

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  WLSMS_EXPECTS(!bounds_.empty());
  for (std::size_t i = 0; i + 1 < bounds_.size(); ++i)
    WLSMS_EXPECTS(bounds_[i] < bounds_[i + 1]);
}

Histogram::Shard& Histogram::shard() {
  if (void* cached = find_shard(this))
    return *static_cast<Shard*>(cached);
  const std::scoped_lock lock(mutex_);
  shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  Shard* fresh = shards_.back().get();
  tl_shards[this] = fresh;
  return *fresh;
}

void Histogram::observe(double value) {
  // First bucket whose upper bound is >= value; a boundary value belongs to
  // the bucket it bounds. NaN compares false against every bound and falls
  // through to the overflow bucket. Non-finite observations (NaN, +/-inf)
  // are counted but excluded from the sum, which must stay finite.
  std::size_t bucket = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i)
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  Shard& s = shard();
  s.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(value)) atomic_add_double(s.sum, value);
}

HistogramSnapshot Histogram::snapshot_values() const {
  HistogramSnapshot snapshot;
  snapshot.upper_bounds = bounds_;
  snapshot.counts.assign(bounds_.size() + 1, 0);
  const std::scoped_lock lock(mutex_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (std::size_t b = 0; b < shard->counts.size(); ++b)
      snapshot.counts[b] += shard->counts[b].load(std::memory_order_relaxed);
    snapshot.sum += shard->sum.load(std::memory_order_relaxed);
  }
  for (std::uint64_t count : snapshot.counts) snapshot.total += count;
  return snapshot;
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::instance() {
  // Leaked: metric references and thread-local shard pointers outlive every
  // static-destruction order, so instrumentation is safe from any thread at
  // any point of shutdown.
  static Registry* registry = [] {
    install_fork_handlers();
    return new Registry();
  }();
  return *registry;
}

Counter& Registry::counter(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter()))
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge()))
             .first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  const std::scoped_lock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(
                          new Histogram(std::move(bounds))))
             .first;
    return *it->second;
  }
  if (it->second->upper_bounds() != bounds)
    throw Error("histogram '" + std::string(name) +
                "' re-registered with different bucket bounds");
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snapshot;
  const std::scoped_lock lock(mutex_);
  for (const auto& [name, counter] : counters_)
    snapshot.counters.emplace(name, counter->value());
  for (const auto& [name, gauge] : gauges_)
    snapshot.gauges.emplace(name, gauge->value());
  for (const auto& [name, histogram] : histograms_)
    snapshot.histograms.emplace(name, histogram->snapshot_values());
  return snapshot;
}

void Registry::reset_values_for_testing() {
  const std::scoped_lock lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    const std::scoped_lock shard_lock(counter->mutex_);
    for (const std::unique_ptr<Counter::Shard>& shard : counter->shards_)
      shard->value.store(0, std::memory_order_relaxed);
  }
  for (const auto& [name, gauge] : gauges_)
    gauge->value_.store(0.0, std::memory_order_relaxed);
  for (const auto& [name, histogram] : histograms_) {
    const std::scoped_lock shard_lock(histogram->mutex_);
    for (const std::unique_ptr<Histogram::Shard>& shard :
         histogram->shards_) {
      for (std::atomic<std::uint64_t>& count : shard->counts)
        count.store(0, std::memory_order_relaxed);
      shard->sum.store(0.0, std::memory_order_relaxed);
    }
  }
}

void Registry::lock_for_fork() {
  mutex_.lock();
  for (const auto& [name, counter] : counters_) counter->mutex_.lock();
  for (const auto& [name, histogram] : histograms_) histogram->mutex_.lock();
}

void Registry::unlock_after_fork() {
  for (const auto& [name, histogram] : histograms_) histogram->mutex_.unlock();
  for (const auto& [name, counter] : counters_) counter->mutex_.unlock();
  mutex_.unlock();
}

void Registry::install_fork_handlers() {
  // A worker rank the comm TCP transport spawns with fork() inherits the
  // address space but only the forking thread. Holding every metric mutex
  // across the fork guarantees the child never inherits a mutex locked by
  // a thread that does not exist there — worker-side solver
  // instrumentation stays safe with a live snapshot thread in the
  // controller.
  pthread_atfork([] { instance().lock_for_fork(); },
                 [] { instance().unlock_after_fork(); },
                 [] { instance().unlock_after_fork(); });
}

}  // namespace wlsms::obs
