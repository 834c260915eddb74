#include "perf/flops.hpp"

#include <atomic>

namespace wlsms::perf {

namespace {

std::atomic<std::uint64_t>& global_counter(std::size_t kernel) {
  static std::atomic<std::uint64_t> counters[kKernelCount]{};
  return counters[kernel];
}

// Per-thread, per-kernel tally that drains into the global counters in
// chunks to keep atomic traffic off the kernel hot path.
struct ThreadTally {
  std::uint64_t local[kKernelCount]{};
  std::uint64_t drained[kKernelCount]{};
  ~ThreadTally() {
    for (std::size_t k = 0; k < kKernelCount; ++k)
      global_counter(k).fetch_add(local[k] - drained[k]);
  }
};

thread_local ThreadTally tally;

constexpr std::uint64_t kDrainThreshold = 1ULL << 20;

}  // namespace

void add_flops(Kernel kernel, std::uint64_t count) {
  const auto k = static_cast<std::size_t>(kernel);
  tally.local[k] += count;
  if (tally.local[k] - tally.drained[k] >= kDrainThreshold) {
    global_counter(k).fetch_add(tally.local[k] - tally.drained[k]);
    tally.drained[k] = tally.local[k];
  }
}

void add_flops(std::uint64_t count) { add_flops(Kernel::kOther, count); }

void drain_thread_flops() {
  for (std::size_t k = 0; k < kKernelCount; ++k) {
    if (tally.local[k] == tally.drained[k]) continue;
    global_counter(k).fetch_add(tally.local[k] - tally.drained[k]);
    tally.drained[k] = tally.local[k];
  }
}

std::uint64_t thread_flops() {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < kKernelCount; ++k) total += tally.local[k];
  return total;
}

std::uint64_t total_flops(Kernel kernel) {
  const auto k = static_cast<std::size_t>(kernel);
  // Include this thread's undrained part so single-threaded callers see an
  // exact value without a synchronization point.
  return global_counter(k).load() + (tally.local[k] - tally.drained[k]);
}

std::uint64_t total_flops() {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < kKernelCount; ++k)
    total += total_flops(static_cast<Kernel>(k));
  return total;
}

FlopWindow::FlopWindow() {
  for (std::size_t k = 0; k < kKernelCount; ++k)
    start_[k] = total_flops(static_cast<Kernel>(k));
}

std::uint64_t FlopWindow::elapsed() const {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < kKernelCount; ++k)
    total += elapsed(static_cast<Kernel>(k));
  return total;
}

std::uint64_t FlopWindow::elapsed(Kernel kernel) const {
  const auto k = static_cast<std::size_t>(kernel);
  return total_flops(kernel) - start_[k];
}

double FlopWindow::gemm_fraction() const {
  const std::uint64_t total = elapsed();
  if (total == 0) return 0.0;
  return static_cast<double>(elapsed(Kernel::kZgemm)) /
         static_cast<double>(total);
}

}  // namespace wlsms::perf
