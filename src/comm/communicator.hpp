#pragma once

/// \file communicator.hpp
/// Transport-agnostic controller <-> worker messaging: the API seam that
/// lets the Wang-Landau master drive LSMS groups without knowing whether a
/// "rank" is a thread in this process or a process at the other end of a
/// TCP connection, possibly on another node (paper §II-C / Fig. 3: one WL
/// driver feeding M independent N-core LSMS instances).
///
/// Topology: a Communicator owns a fixed set of worker ranks, all spawned
/// at construction, each running the caller-supplied worker function over
/// its WorkerChannel. The controller sends tagged byte payloads to a rank
/// and receives (rank, message) pairs from any rank; payload encoding is
/// the caller's business (comm/wire.hpp for the energy protocol).
///
/// Liveness: a rank is `alive` until its worker exits, its transport
/// endpoint closes (process death is an immediate EOF), or the controller
/// kills it. Workers emit heartbeats while idle-waiting; the controller
/// reads `millis_since_heard` to detect a rank that is wedged mid-task
/// without having died — the timeout half of the failure-detection story,
/// feeding the same reroute path as hard death.
///
/// Transports:
///  - kInProcess: each rank is a std::thread with lock-guarded queues.
///    Deterministic enough for the sanitizer-labeled stress suites; kill()
///    closes the rank's queues so death is emulated exactly.
///  - kTcp: each rank is a TCP connection accepted by a controller-side
///    listener after a magic/version/rank handshake. Workers either run on
///    other nodes (`wlsms worker --connect host:port`) or, for loopback
///    tests and single-host use, are fork()ed locally and connect back to
///    the listener; kill() SIGKILLs a spawned worker and closes an external
///    one's connection. Frames, heartbeats and EOF-death detection run over
///    the byte-stream codec of src/comm/framing.
///    Fork safety for spawned workers: create the communicator before
///    starting any in-process thread pools, and keep worker code off
///    OpenMP paths; the child only ever runs the worker function plus what
///    it calls, inheriting the parent (a pre-built LsmsSolver, say)
///    copy-on-write.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace wlsms::comm {

/// Thrown on transport-level misuse or total communication failure.
class CommError : public Error {
 public:
  explicit CommError(const std::string& what) : Error(what) {}
};

/// A tagged byte payload. Tags are application-defined (comm/wire.hpp);
/// the transport only routes them.
struct Message {
  std::uint32_t tag = 0;
  std::vector<std::byte> payload;
};

/// A message the controller received, with the rank it came from.
struct Incoming {
  std::size_t rank = 0;
  Message message;
};

/// Worker-side view of the channel back to the controller.
class WorkerChannel {
 public:
  virtual ~WorkerChannel() = default;

  /// This rank's id within the communicator.
  virtual std::size_t rank() const = 0;

  /// Sends a message to the controller; drops silently if the controller
  /// side is gone (the worker is about to be reaped anyway).
  virtual void send(const Message& message) = 0;

  /// Blocks for the next message from the controller; emits heartbeats
  /// while waiting. Returns nullopt when the channel is closed (shutdown,
  /// kill) — the worker function should then return.
  virtual std::optional<Message> recv() = 0;
};

/// The code a worker rank runs; returning ends the rank.
using WorkerMain = std::function<void(WorkerChannel&)>;

/// Controller-side endpoint set. All methods are controller-thread-only
/// (the controller is single-threaded by design, like the paper's WL
/// master process).
class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual std::size_t n_ranks() const = 0;

  /// False once the rank's worker exited, its endpoint closed, or kill()
  /// was called on it.
  virtual bool alive(std::size_t rank) const = 0;

  /// Number of ranks still alive.
  std::size_t n_alive() const;

  /// Sends to a rank. Returns false (and marks the rank dead) if the rank
  /// is already dead or dies during the send; never throws for peer death.
  virtual bool send(std::size_t rank, const Message& message) = 0;

  /// Blocks up to `timeout` for a message from any rank. Heartbeats are
  /// consumed internally (they update millis_since_heard and never
  /// surface). Returns nullopt on timeout. Rank death discovered while
  /// waiting flips alive() and does not surface as a message.
  virtual std::optional<Incoming> recv(std::chrono::milliseconds timeout) = 0;

  /// Milliseconds since the rank was last heard from (any message or
  /// heartbeat; spawn counts as heard). Large values on a rank with work
  /// assigned mean it is wedged. Returns a huge value for dead ranks.
  virtual std::uint64_t millis_since_heard(std::size_t rank) const = 0;

  /// Forcibly terminates a rank (SIGKILL / queue closure). Idempotent.
  /// Also the failure-injection hook for resilience tests.
  virtual void kill(std::size_t rank) = 0;

  /// Graceful teardown: closes every channel and reaps the workers.
  /// Called by the destructor; exposed for explicit shutdown ordering.
  virtual void shutdown() = 0;
};

/// Which realization of the Communicator to build.
enum class Transport {
  kInProcess,  ///< worker ranks are threads of this process
  kTcp,        ///< worker ranks are TCP connections (loopback or remote)
};

/// Parses "inprocess" / "tcp" (the CLI --transport values); throws
/// CommError naming both on anything else.
Transport parse_transport(const std::string& name);
const char* transport_name(Transport transport);

/// How to build a kTcp communicator.
struct TcpOptions {
  /// Controller bind address as host:port; port 0 picks an ephemeral port.
  std::string listen = "127.0.0.1:0";
  /// True (default): fork one local worker per rank, each connecting back
  /// to the listener over loopback — self-contained. False: expect
  /// `n_ranks` external workers (`wlsms worker --connect`) to dial in;
  /// `worker_main` is not used.
  bool spawn_workers = true;
  /// Called once the listener is bound, with the actual "host:port" (the
  /// ephemeral port resolved). With external workers this is the moment to
  /// tell them where to connect.
  std::function<void(const std::string&)> on_listening;
  /// Construction fails with CommError if the full group has not formed
  /// (accepted + handshaken) within this window.
  std::chrono::milliseconds accept_timeout{15000};
  /// Upper bound on one controller-side send (all retries included). A peer
  /// whose socket buffer stays full past this — a SIGSTOPped worker, a
  /// partitioned node — is marked dead and `send` returns false instead of
  /// wedging the controller. Defaults to the heartbeat-timeout scale.
  std::chrono::milliseconds send_deadline{5000};
  /// One shared grace period for the whole teardown: shutdown() polls every
  /// spawned worker in one pass for this long, then SIGKILLs the stragglers
  /// together (teardown is O(grace), not O(ranks * grace)).
  std::chrono::milliseconds shutdown_grace{5000};
};

std::unique_ptr<Communicator> make_in_process_communicator(
    std::size_t n_ranks, WorkerMain worker_main);
/// Listens, accepts `n_ranks` workers (spawned on loopback or external),
/// and returns once the group has formed. Throws CommError on bind/accept
/// failure or an incomplete group at `options.accept_timeout`.
std::unique_ptr<Communicator> make_tcp_communicator(std::size_t n_ranks,
                                                    WorkerMain worker_main,
                                                    const TcpOptions& options);

/// The worker end of the TCP transport: connects to a controller at
/// "host:port" (non-blocking connect bounded by kConnectTimeout), performs
/// the magic/version/rank handshake, runs `worker_main` over the stream
/// channel until the controller closes it, and returns the rank the
/// controller assigned. Throws CommError on connect or handshake failure.
/// This is what `wlsms worker --connect` calls on other nodes.
std::size_t run_tcp_worker(const std::string& address,
                           const WorkerMain& worker_main);

/// Interval at which idle workers heartbeat. Controllers should use a
/// detection timeout of several multiples of this.
inline constexpr std::chrono::milliseconds kHeartbeatInterval{100};

/// Deadline of one non-blocking TCP connect: a TCP worker dialing its
/// controller, and a serve client dialing its daemon.
inline constexpr std::chrono::milliseconds kConnectTimeout{5000};

/// TCP handshake window, per connection and per direction: the controller
/// waits this long for a hello, the worker for its welcome. Generous for a
/// WAN round-trip, small enough that a garbage connection cannot stall
/// group formation.
inline constexpr std::chrono::milliseconds kHandshakeTimeout{2000};

}  // namespace wlsms::comm
