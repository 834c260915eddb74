#pragma once

/// \file daemon.hpp
/// The `wlsms serve` daemon: a persistent, multi-tenant energy service. One
/// single-threaded poll loop owns a TCP listener, the per-connection frame
/// reassembly, and a BatchScheduler over one shared LsmsSolver; independent
/// clients (tenants) hand their walkers' configurations to the same solver
/// and the scheduler coalesces concurrent requests into batched solves
/// whose zone solves spread over every core (scheduler.hpp, DESIGN.md §12).
///
/// Fault containment mirrors the comm transports: a connection that sends
/// garbage, violates the handshake, goes quiet, or stops reading its
/// results is closed — never allowed to crash or desync the daemon. A
/// session lives exactly as long as its connection: when the connection
/// closes, the session's pending requests are discarded and results still
/// being solved for it are dropped. The tenant's Wang-Landau driver owns
/// ln g and every walker configuration, so the daemon keeps no file, token
/// or state for a disconnected session.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "comm/framing.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"

namespace wlsms::serve {

/// Daemon construction knobs.
struct ServeOptions {
  /// Bind address; port 0 picks an ephemeral port (resolved address is
  /// available via Daemon::address() and on_listening).
  std::string listen = "127.0.0.1:0";
  ServeLimits limits;
  /// A connection that has not completed the hello/welcome handshake within
  /// this window is closed (half-open sockets cannot pin daemon slots).
  std::chrono::milliseconds handshake_timeout{2000};
  /// Upper bound on one result/reject write to a client; a client whose
  /// socket buffer stays full past this is dropped with its session.
  std::chrono::milliseconds send_deadline{5000};
  /// Most distinct tenant names that get their own serve.tenant.<name>.*
  /// metric series; tenants beyond the cap are folded into the "other"
  /// label. Tenant names arrive unauthenticated on the wire, so without a
  /// cap a hostile client could grow the metrics registry without bound by
  /// handshaking with fresh names.
  std::size_t max_tenant_series = 64;
  /// When nonzero, SO_SNDBUF for accepted client sockets: bounds the
  /// kernel-side buffering per client, so a stalled reader trips
  /// send_deadline instead of absorbing results invisibly (0 = kernel
  /// default).
  std::size_t client_sndbuf = 0;
  /// Called once the listener is bound, with the resolved "host:port".
  std::function<void(const std::string&)> on_listening;
  /// When nonzero, run() sets its thread's OpenMP team size (the threads
  /// each batched solve spreads its zone solves over) to this for the
  /// daemon's lifetime and restores the caller's value on return (0 = the
  /// OpenMP default: OMP_NUM_THREADS, else every core). At most INT_MAX
  /// (the constructor's contract; omp_set_num_threads takes an int).
  std::size_t gemm_batch_threads = 0;
};

/// The serve daemon. Construct (binds + listens), then run() the poll loop;
/// stop() — the only thread-safe method — makes run() solve what is
/// pending, deliver it, close every session and return.
class Daemon {
 public:
  Daemon(std::shared_ptr<const lsms::LsmsSolver> solver, ServeOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Resolved listen address (ephemeral port filled in).
  const std::string& address() const { return address_; }

  /// Serves until stop(). Not reentrant.
  void run();

  /// Signals run() to drain and return: every pending request is solved
  /// and delivered, then every connection closed. Callable from any thread,
  /// any number of times.
  void stop();

  /// Scheduler dispatch accounting (read after run() returns).
  const BatchScheduler::Stats& scheduler_stats() const {
    return scheduler_.stats();
  }

 private:
  struct Connection {
    comm::FrameAssembler rx;
    std::uint64_t session = 0;  ///< 0 until the hello/welcome handshake
    std::chrono::steady_clock::time_point connected_at;
  };

  struct Session {
    int fd = -1;               ///< the connection the session lives on
    std::string metric_label;  ///< tenant, or "other" past max_tenant_series
  };

  void accept_pending();
  void read_connection(int fd);
  bool handle_frame(int fd, const comm::Message& frame);
  bool handle_hello(int fd, const std::vector<std::byte>& payload);
  bool handle_submit(int fd, const std::vector<std::byte>& payload);
  void dispatch_ready_batches(bool force = false);
  /// Routes one completion to its session: encodes the result with its
  /// completed stage vector, feeds the serve.stage_ms.* histograms, and
  /// emits the per-request serve.request span (adopted under the client's
  /// submitting span when the request carried a trace context). A failed
  /// write drops the connection and its session.
  void deliver(const BatchScheduler::Completed& done);
  bool send_frame(int fd, std::uint32_t tag, std::vector<std::byte> payload);
  void drop_connection(int fd);
  void close_session(std::uint64_t session);
  void expire_handshakes();
  int poll_timeout_ms() const;
  /// The metric label for `tenant`: itself for the first max_tenant_series
  /// distinct names this daemon sees, "other" afterwards.
  const std::string& tenant_label(const std::string& tenant);

  std::shared_ptr<const lsms::LsmsSolver> solver_;
  ServeOptions options_;
  BatchScheduler scheduler_;
  std::string address_;
  int listener_ = -1;
  int stop_read_ = -1;   ///< self-pipe: run() polls this...
  int stop_write_ = -1;  ///< ...and stop() writes one byte to it
  std::map<int, Connection> connections_;          ///< by fd
  std::map<std::uint64_t, Session> sessions_;      ///< by session id
  std::uint64_t next_session_ = 1;
  std::set<std::string> tenant_labels_;  ///< tenants with own metric series
  std::vector<BatchScheduler::Completed> completed_;  ///< reused scratch
};

}  // namespace wlsms::serve
