#include "common/logging.hpp"

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace wlsms {

namespace {

std::atomic<LogLevel>& level_slot() {
  static std::atomic<LogLevel> level{LogLevel::kWarn};
  return level;
}

std::mutex& emit_mutex() {
  // The TCP transport fork()s its loopback worker ranks; hold the mutex
  // across the fork so a child never inherits it locked by a vanished
  // thread.
  static std::mutex* m = [] {
    static std::mutex mutex;
    pthread_atfork([] { mutex.lock(); }, [] { mutex.unlock(); },
                   [] { mutex.unlock(); });
    return &mutex;
  }();
  return *m;
}

std::chrono::steady_clock::time_point log_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

void set_log_level(LogLevel level) { level_slot().store(level); }

LogLevel log_level() { return level_slot().load(); }

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    default:
      return "off";
  }
}

bool parse_log_level(std::string_view text, LogLevel& out) {
  if (text == "debug")
    out = LogLevel::kDebug;
  else if (text == "info")
    out = LogLevel::kInfo;
  else if (text == "warn")
    out = LogLevel::kWarn;
  else if (text == "error")
    out = LogLevel::kError;
  else if (text == "off")
    out = LogLevel::kOff;
  else
    return false;
  return true;
}

void log_message(LogLevel level, const std::string& message) {
  if (level < log_level()) return;
  // Render the whole record first so one fwrite emits it: interleaved
  // worker-rank processes share stderr, and partial lines from two ranks
  // must never splice. Two timestamps per record: a process-local monotonic
  // clock for ordering within one process (wall time can step, which would
  // scramble the narration of a failover), and a wall-clock epoch stamp so
  // lines from different processes — and metrics snapshots, which carry the
  // same wall_ms field — line up on one timeline.
  const double t_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - log_epoch())
                          .count();
  const double wall_s =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  char prefix[80];
  const int prefix_len =
      std::snprintf(prefix, sizeof prefix, "[wlsms %.3f %12.3f %-5s] ",
                    wall_s, t_ms, log_level_name(level));
  std::string record;
  record.reserve(static_cast<std::size_t>(prefix_len) + message.size() + 1);
  record.append(prefix, static_cast<std::size_t>(prefix_len));
  record += message;
  record += '\n';

  const std::scoped_lock lock(emit_mutex());
  std::fwrite(record.data(), 1, record.size(), stderr);
  std::fflush(stderr);
}

}  // namespace wlsms
