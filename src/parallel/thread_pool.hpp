#pragma once

/// \file thread_pool.hpp
/// Fixed-size worker pool behind wl::WindowRunner: one long-lived thread
/// per REWL window or multimaster master, so the solver's thread_local
/// workspaces and the metrics registry's per-thread shards are built once
/// per run rather than once per round.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wlsms::parallel {

/// Simple FIFO thread pool.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t n_threads);

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; never blocks. The task must not throw: an exception
  /// escaping a worker thread terminates the process, so callers park it
  /// and rethrow on their own thread (WindowRunner::round does).
  void post(std::function<void()> task);

  std::size_t n_threads() const { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wlsms::parallel
