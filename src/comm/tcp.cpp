// TCP Communicator: the multi-process and multi-node transport. The
// controller binds a listening socket, workers dial in — from other nodes
// via `wlsms worker --connect host:port`, or (for loopback tests and
// single-host runs) as fork()ed local children — and each connection
// becomes one rank after a magic/version handshake framed in the shared
// WLSM serial schema. From then on every rank is a stream of
// [u32 length][u32 tag] frames (comm/framing) with bounded send deadlines,
// idle heartbeats both ways, and EOF/ECONNRESET death detection feeding
// alive()/millis_since_heard. The controller writes every frame when it
// is sent, one bounded write_all per frame.
//
// Handshake (before any framing trust is extended):
//   worker -> controller   frame{kTagHello,   WLSM header kTcpHello +
//                                             u64 trace_node + u64 t0}
//   controller -> worker   frame{kTagWelcome, WLSM header kTcpWelcome +
//                                             u64 rank + u64 n_ranks +
//                                             u64 trace_node + u64 t1 +
//                                             u64 t2}
// The trace_node/t0..t2 fields double the handshake as an NTP-style clock
// probe: the worker samples t3 at welcome receipt and records its offset to
// the controller clock (obs::set_clock_offset + comm.clock_offset_us), so
// its trace file can be merged into the controller's timebase.
// A connection that sends anything else — wrong magic, wrong schema
// version, garbage, or nothing within the per-connection window — is
// closed and never occupies a rank slot; the controller keeps accepting
// until the group is complete or options.accept_timeout expires.
//
// Fork discipline for spawned workers: children are forked before any
// request traffic, inherit the parent's address space copy-on-write (so a
// pre-built LsmsSolver is usable as-is), never touch OpenMP or in-process
// thread pools, and leave via _exit so no parent-side atexit/static
// destructors run twice.

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "comm/framing.hpp"
#include "comm/socket.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/serial.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wlsms::comm {

namespace {

using std::chrono::milliseconds;

/// Wire-level traffic counters of the controller side. Every frame is one
/// physical write (one syscall, and with TCP_NODELAY one packet).
struct StreamMetrics {
  obs::Counter& frames;
  obs::Counter& bytes;
  obs::Counter& heartbeats;
};

StreamMetrics& stream_metrics() {
  static StreamMetrics metrics{
      obs::Registry::instance().counter("comm.stream.frames_sent"),
      obs::Registry::instance().counter("comm.stream.bytes_sent"),
      obs::Registry::instance().counter("comm.stream.heartbeats_sent"),
  };
  return metrics;
}

// Raw little-endian u64 helpers for the fixed-layout heartbeat clock
// payloads (too small and too hot for the WLSM-headered serial codec).
void put_u64_le(std::byte* out, std::uint64_t v) {
  for (int k = 0; k < 8; ++k)
    out[k] = static_cast<std::byte>((v >> (8 * k)) & 0xFFu);
}

std::uint64_t get_u64_le(const std::byte* p) {
  std::uint64_t v = 0;
  for (int k = 0; k < 8; ++k)
    v |= static_cast<std::uint64_t>(p[k]) << (8 * k);
  return v;
}

// Heartbeat payload shapes: a controller probe is [t0] (8 bytes, controller
// clock); a worker echo is [t0][t1][t2] (24 bytes, t1/t2 worker clock); an
// empty heartbeat is plain liveness (the worker's own idle beats, and any
// peer predating the probes). Anything else is ignored as liveness only.
constexpr std::size_t kClockProbeBytes = 8;
constexpr std::size_t kClockEchoBytes = 24;

/// Reads exactly `n` bytes from a blocking fd; false on EOF or error.
bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got > 0) {
      p += got;
      n -= static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::vector<std::byte> hello_payload(std::uint64_t t0_us) {
  serial::Encoder encoder;
  serial::write_header(encoder, serial::PayloadKind::kTcpHello);
  encoder.put_u64(obs::local_trace_node());
  encoder.put_u64(t0_us);  // worker clock at hello send
  return encoder.take();
}

std::vector<std::byte> welcome_payload(std::uint64_t rank,
                                       std::uint64_t n_ranks,
                                       std::uint64_t t1_us) {
  serial::Encoder encoder;
  serial::write_header(encoder, serial::PayloadKind::kTcpWelcome);
  encoder.put_u64(rank);
  encoder.put_u64(n_ranks);
  encoder.put_u64(obs::local_trace_node());
  encoder.put_u64(t1_us);                // controller clock at hello receipt
  encoder.put_u64(obs::trace_now_us());  // t2: controller clock at send
  return encoder.take();
}

// ---------------------------------------------------------------------------
// Worker side of a rank's stream.

/// Worker-side channel over a handshaken TCP socket: blocking frame reads,
/// idle heartbeats every kHeartbeatInterval, controller clock probes
/// echoed, shutdown tag or EOF -> nullopt.
class StreamWorkerChannel final : public WorkerChannel {
 public:
  StreamWorkerChannel(int fd, std::size_t rank) : fd_(fd), rank_(rank) {}

  std::size_t rank() const override { return rank_; }
  void send(const Message& message) override;
  std::optional<Message> recv() override;

 private:
  int fd_;
  std::size_t rank_;
};

void StreamWorkerChannel::send(const Message& message) {
  const std::vector<std::byte> frame = frame_bytes(message);
  // Workers drop silently if the controller is gone (about to be reaped),
  // but still bound the write: a wedged controller must not pin the worker
  // inside send() forever either.
  (void)write_all(fd_, frame.data(), frame.size(),
                  StreamClock::now() + std::chrono::milliseconds{5000});
}

std::optional<Message> StreamWorkerChannel::recv() {
  while (true) {
    struct pollfd pfd{fd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(kHeartbeatInterval.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (ready == 0) {
      // Idle: tell the controller we are still here.
      send(Message{kTagHeartbeat, {}});
      continue;
    }
    std::uint32_t header[2];
    if (!read_all(fd_, header, sizeof(header))) return std::nullopt;
    const std::uint32_t length = header[0];
    if (length < 4 || length > kMaxFrameBytes) return std::nullopt;
    Message message;
    message.tag = header[1];
    message.payload.resize(length - 4);
    if (!message.payload.empty() &&
        !read_all(fd_, message.payload.data(), message.payload.size()))
      return std::nullopt;
    if (message.tag == kTagShutdown) return std::nullopt;
    if (message.tag == kTagHeartbeat) {
      // A probe heartbeat carries the controller's send timestamp; echo it
      // back with our receive/reply timestamps so the controller can close
      // an NTP-style offset estimate for this rank. Empty (or unknown)
      // payloads are plain liveness.
      if (message.payload.size() == kClockProbeBytes) {
        const std::uint64_t t0 = get_u64_le(message.payload.data());
        const std::uint64_t t1 = obs::trace_now_us();
        Message echo{kTagHeartbeat, std::vector<std::byte>(kClockEchoBytes)};
        put_u64_le(echo.payload.data(), t0);
        put_u64_le(echo.payload.data() + 8, t1);
        put_u64_le(echo.payload.data() + 16, obs::trace_now_us());
        send(echo);
      }
      continue;
    }
    return message;
  }
}

/// Reaps spawned workers with ONE shared grace period: polls every pid in
/// `pids` (entries < 0 are already reaped and skipped) with WNOHANG until
/// all exit or `grace` elapses, then SIGKILLs the stragglers together and
/// collects them. Reaped entries are set to -1. Teardown cost is bounded by
/// one grace period regardless of how many ranks are stuck.
void reap_children(std::vector<pid_t>& pids, milliseconds grace) {
  const StreamClock::time_point deadline = StreamClock::now() + grace;
  // One shared grace period across ALL children: poll everyone each pass,
  // so teardown of an n-rank group costs one grace, not n.
  while (true) {
    bool all_reaped = true;
    for (pid_t& pid : pids) {
      if (pid < 0) continue;
      const pid_t got = ::waitpid(pid, nullptr, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD))
        pid = -1;
      else
        all_reaped = false;
    }
    if (all_reaped) return;
    if (StreamClock::now() >= deadline) break;
    ::usleep(1000);
  }
  // Grace exhausted: SIGKILL every straggler together, then collect them.
  for (pid_t pid : pids)
    if (pid >= 0) ::kill(pid, SIGKILL);
  for (pid_t& pid : pids) {
    if (pid < 0) continue;
    (void)::waitpid(pid, nullptr, 0);
    pid = -1;
  }
}

// ---------------------------------------------------------------------------
// Controller side.

/// The controller end of every rank's stream: per-rank liveness, frame
/// reassembly, bounded sends, heartbeat bookkeeping and the recv/poll
/// loop. kill() SIGKILLs a spawned worker (an external one sees its
/// connection close); shutdown() reaps every spawned worker within one
/// shared grace period.
class TcpCommunicator final : public Communicator {
 public:
  TcpCommunicator(std::size_t n_ranks, const WorkerMain& worker_main,
                  const TcpOptions& options);
  ~TcpCommunicator() override { shutdown(); }

  std::size_t n_ranks() const override { return peers_.size(); }
  bool alive(std::size_t rank) const override;
  bool send(std::size_t rank, const Message& message) override;
  std::optional<Incoming> recv(std::chrono::milliseconds timeout) override;
  std::uint64_t millis_since_heard(std::size_t rank) const override;
  void kill(std::size_t rank) override;
  void shutdown() override;

 private:
  struct Peer {
    int fd = -1;
    bool alive = true;
    FrameAssembler rx;
    StreamClock::time_point last_sent = StreamClock::now();
    StreamClock::time_point last_heard = StreamClock::now();
    /// Clock probes run on their own cadence: data traffic suppresses idle
    /// heartbeats (last_sent keeps advancing) but must not starve the
    /// offset estimate, or a busy run never refreshes its per-rank gauges.
    StreamClock::time_point last_probe{};
  };

  /// Registers a connected peer fd as the next rank. Construction-time only.
  void add_peer(int fd);

  /// Flips liveness off and closes the fd. Idempotent.
  void mark_dead(std::size_t rank);

  /// Drains readable bytes of `rank` and extracts complete frames into
  /// pending_ (heartbeats only refresh last_heard). A corrupt frame or EOF
  /// marks the rank dead; frames completed before the failure still
  /// surface (the service layer discards posthumous gathers itself).
  void drain(std::size_t rank);

  /// Sends an idle heartbeat to every alive rank not written to within
  /// kHeartbeatInterval, so workers on a real network can tell a quiet
  /// controller from a dead one.
  void heartbeat_tick();

  /// Closes one heartbeat clock probe ([t0][t1][t2] echo from `rank`):
  /// estimates the rank's clock offset NTP-style and publishes it as the
  /// `comm.clock_offset_us.rank<k>` gauge.
  void observe_clock_echo(std::size_t rank,
                          const std::vector<std::byte>& payload);

  /// Marks every rank dead (closing every fd); the shutdown() preamble.
  void close_all_peers();

  milliseconds send_deadline_;
  milliseconds shutdown_grace_;
  std::vector<Peer> peers_;
  std::deque<Incoming> pending_;
  bool shut_down_ = false;
  /// Pid of rank r's locally spawned worker, or -1 (external / reaped).
  std::vector<pid_t> pids_;
};

TcpCommunicator::TcpCommunicator(std::size_t n_ranks,
                                 const WorkerMain& worker_main,
                                 const TcpOptions& options)
    : send_deadline_(options.send_deadline),
      shutdown_grace_(options.shutdown_grace) {
  WLSMS_EXPECTS(n_ranks >= 1);
  if (options.spawn_workers) WLSMS_EXPECTS(worker_main != nullptr);

  // Bind + listen before anything can try to connect.
  std::string bound_address;
  Socket listener = make_listener(options.listen,
                                  static_cast<int>(n_ranks) + 8,
                                  bound_address);
  log_debug("comm: tcp controller listening on ", bound_address, " for ",
            n_ranks, " workers");
  if (options.on_listening) options.on_listening(bound_address);

  // Accepts until one connection passes the handshake and becomes the next
  // rank; false once the group's accept deadline has passed. A connection
  // that fails the handshake is closed and does not consume a rank slot.
  const StreamClock::time_point accept_deadline =
      StreamClock::now() + options.accept_timeout;
  std::size_t accepted = 0;
  const auto accept_next_rank = [&]() -> bool {
    while (true) {
      const auto remaining = std::chrono::duration_cast<milliseconds>(
          accept_deadline - StreamClock::now());
      if (remaining.count() <= 0) return false;
      struct pollfd pfd{listener.get(), POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw CommError(std::string("tcp: poll on listener failed: ") +
                        std::strerror(errno));
      }
      if (ready == 0) return false;  // deadline
      Socket conn(::accept(listener.get(), nullptr, nullptr));
      if (conn.get() < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        throw CommError(std::string("tcp: accept failed: ") +
                        std::strerror(errno));
      }
      set_nodelay(conn.get());
      set_cloexec(conn.get());

      // Validate the hello before the connection becomes a rank.
      std::uint64_t t1_us = 0;
      try {
        const Message hello =
            read_frame(conn.get(), StreamClock::now() + kHandshakeTimeout);
        t1_us = obs::trace_now_us();
        if (hello.tag != kTagHello)
          throw CommError("frame tag " + std::to_string(hello.tag));
        serial::Decoder decoder(hello.payload);
        serial::read_header(decoder, serial::PayloadKind::kTcpHello);
        (void)decoder.get_u64();  // worker trace node
        (void)decoder.get_u64();  // t0: the worker keeps its own copy
        decoder.expect_end();
      } catch (const CommError& error) {
        log_warn("comm: tcp connection rejected (no hello frame: ",
                 error.what(), ")");
        continue;
      } catch (const serial::SerializationError& error) {
        log_warn("comm: tcp connection rejected (bad hello: ", error.what(),
                 ")");
        continue;
      }
      const std::vector<std::byte> welcome = frame_bytes(
          Message{kTagWelcome, welcome_payload(accepted, n_ranks, t1_us)});
      if (!write_all(conn.get(), welcome.data(), welcome.size(),
                     StreamClock::now() + kHandshakeTimeout)) {
        log_warn("comm: tcp connection rejected (welcome write failed)");
        continue;
      }
      log_debug("comm: tcp worker accepted as rank ", accepted);
      add_peer(conn.release());
      ++accepted;
      return true;
    }
  };

  pids_.assign(n_ranks, -1);
  if (options.spawn_workers) {
    // Loopback workers (the fork discipline above), connected through the
    // real listener so the full accept/handshake path runs. Each child is
    // accepted before the next is forked, so rank r is the r-th child and
    // kill(r) signals the process behind rank r's socket; forked all at
    // once, the children's connect order would pick ranks.
    const std::string connect_address =
        "127.0.0.1:" + split_address(bound_address).port;
    std::fflush(nullptr);
    for (std::size_t r = 0; r < n_ranks; ++r) {
      const pid_t pid = ::fork();
      if (pid < 0) {
        close_all_peers();
        reap_children(pids_, milliseconds{100});
        throw CommError(std::string("tcp: fork failed: ") +
                        std::strerror(errno));
      }
      if (pid == 0) {
        listener.close();
        // Drop the inherited controller ends of the earlier ranks' sockets:
        // held open here, they would hide the controller's close from those
        // workers.
        shut_down_ = true;
        close_all_peers();
        int status = 0;
        try {
          (void)run_tcp_worker(connect_address, worker_main);
        } catch (...) {
          status = 1;
        }
        ::_exit(status);
      }
      pids_[r] = pid;
      if (!accept_next_rank()) break;
    }
  } else {
    while (accepted < n_ranks && accept_next_rank()) {
    }
  }
  if (accepted < n_ranks) {
    close_all_peers();
    reap_children(pids_, milliseconds{100});
    throw CommError("tcp: only " + std::to_string(accepted) + " of " +
                    std::to_string(n_ranks) +
                    " workers joined within the accept timeout");
  }
  // Group membership is fixed at construction; stop accepting.
}

void TcpCommunicator::kill(std::size_t rank) {
  WLSMS_EXPECTS(rank < n_ranks());
  if (alive(rank))
    log_debug("comm: tcp kill rank ", rank,
              pids_[rank] >= 0 ? " (SIGKILL local worker)"
                               : " (closing connection)");
  if (pids_[rank] >= 0) {
    ::kill(pids_[rank], SIGKILL);
    (void)::waitpid(pids_[rank], nullptr, 0);
    pids_[rank] = -1;
  }
  // External workers see EOF on the close and exit on their own.
  mark_dead(rank);
}

void TcpCommunicator::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // Closing our ends gives every worker EOF at once; spawned workers share
  // ONE grace period to finish a task in flight, then stragglers are
  // SIGKILLed together — teardown is O(grace), not O(ranks * grace).
  close_all_peers();
  reap_children(pids_, shutdown_grace_);
}

void TcpCommunicator::add_peer(int fd) {
  Peer peer;
  peer.fd = fd;
  peers_.push_back(std::move(peer));
}

bool TcpCommunicator::alive(std::size_t rank) const {
  WLSMS_EXPECTS(rank < peers_.size());
  return peers_[rank].alive;
}

bool TcpCommunicator::send(std::size_t rank, const Message& message) {
  WLSMS_EXPECTS(rank < peers_.size());
  Peer& peer = peers_[rank];
  if (!peer.alive) return false;
  const std::vector<std::byte> frame = frame_bytes(message);
  stream_metrics().frames.inc();
  stream_metrics().bytes.add(frame.size());
  peer.last_sent = StreamClock::now();
  if (!write_all(peer.fd, frame.data(), frame.size(),
                 peer.last_sent + send_deadline_)) {
    mark_dead(rank);
    return false;
  }
  return true;
}

void TcpCommunicator::heartbeat_tick() {
  const StreamClock::time_point now = StreamClock::now();
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    Peer& peer = peers_[r];
    if (!peer.alive) continue;
    if (now - peer.last_sent < kHeartbeatInterval &&
        now - peer.last_probe < kHeartbeatInterval)
      continue;
    // Each heartbeat doubles as a clock probe: it carries our send
    // timestamp, and the worker's echo closes the four-timestamp offset
    // estimate in drain(). Probes run on their own cadence (last_probe)
    // so a busy link — where data traffic suppresses idle heartbeats —
    // still refreshes the offset estimate every interval.
    Message probe{kTagHeartbeat, std::vector<std::byte>(kClockProbeBytes)};
    put_u64_le(probe.payload.data(), obs::trace_now_us());
    peer.last_probe = now;
    stream_metrics().heartbeats.inc();
    (void)send(r, probe);
  }
}

void TcpCommunicator::drain(std::size_t rank) {
  Peer& peer = peers_[rank];
  char chunk[65536];
  while (true) {
    const ssize_t got = ::recv(peer.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (got > 0) {
      peer.rx.push(chunk, static_cast<std::size_t>(got));
      if (got == static_cast<ssize_t>(sizeof(chunk))) continue;
      break;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (got < 0 && errno == EINTR) continue;
    mark_dead(rank);  // EOF or hard error
    break;
  }

  // Extract complete frames — including frames fully received before an
  // EOF; the service layer decides what to do with posthumous gathers.
  Message message;
  try {
    while (peer.rx.pop(message)) {
      peer.last_heard = StreamClock::now();
      if (message.tag == kTagHeartbeat) {
        if (message.payload.size() == kClockEchoBytes)
          observe_clock_echo(rank, message.payload);
        continue;
      }
      pending_.push_back({rank, std::move(message)});
    }
  } catch (const CommError& error) {
    if (!shut_down_)
      log_warn("comm: rank ", rank, " stream corrupt (", error.what(),
               "); marking dead");
    peer.rx.reset();
    mark_dead(rank);
  }
}

std::optional<Incoming> TcpCommunicator::recv(
    std::chrono::milliseconds timeout) {
  const StreamClock::time_point deadline = StreamClock::now() + timeout;
  while (true) {
    if (!pending_.empty()) {
      Incoming incoming = std::move(pending_.front());
      pending_.pop_front();
      return incoming;
    }
    // Every poll cycle: top up idle heartbeats.
    heartbeat_tick();

    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - StreamClock::now());
    if (remaining.count() <= 0) return std::nullopt;

    std::vector<struct pollfd> fds;
    std::vector<std::size_t> fd_rank;
    for (std::size_t r = 0; r < peers_.size(); ++r) {
      if (!peers_[r].alive) continue;
      fds.push_back({peers_[r].fd, POLLIN, 0});
      fd_rank.push_back(r);
    }
    if (fds.empty()) return std::nullopt;  // everyone is dead

    // Wake at least every heartbeat interval so controller heartbeats keep
    // flowing even when no worker traffic arrives.
    const int wait_ms = static_cast<int>(
        std::min<std::int64_t>(remaining.count(), kHeartbeatInterval.count()));
    const int ready = ::poll(fds.data(), fds.size(), wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw CommError(std::string("poll failed: ") + std::strerror(errno));
    }
    if (ready == 0) continue;  // deadline rechecked at the top
    for (std::size_t k = 0; k < fds.size(); ++k)
      if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) drain(fd_rank[k]);
  }
}

void TcpCommunicator::observe_clock_echo(
    std::size_t rank, const std::vector<std::byte>& payload) {
  const std::uint64_t t0 = get_u64_le(payload.data());
  const std::uint64_t t1 = get_u64_le(payload.data() + 8);
  const std::uint64_t t2 = get_u64_le(payload.data() + 16);
  const std::uint64_t t3 = obs::trace_now_us();
  // NTP four-timestamp estimate: offset = worker clock - controller clock,
  // assuming symmetric one-way delays. t0/t3 are our clock, t1/t2 theirs.
  const double offset_us =
      ((static_cast<double>(t1) - static_cast<double>(t0)) +
       (static_cast<double>(t2) - static_cast<double>(t3))) /
      2.0;
  obs::Registry::instance()
      .gauge("comm.clock_offset_us.rank" + std::to_string(rank))
      .set(offset_us);
}

std::uint64_t TcpCommunicator::millis_since_heard(std::size_t rank) const {
  WLSMS_EXPECTS(rank < peers_.size());
  if (!peers_[rank].alive) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          StreamClock::now() - peers_[rank].last_heard)
          .count());
}

void TcpCommunicator::mark_dead(std::size_t rank) {
  Peer& peer = peers_[rank];
  if (!peer.alive) return;
  peer.alive = false;
  if (!shut_down_)
    log_debug("comm: stream rank ", rank, " endpoint closed; marking dead");
  if (peer.fd >= 0) {
    ::close(peer.fd);
    peer.fd = -1;
  }
}

void TcpCommunicator::close_all_peers() {
  for (std::size_t r = 0; r < peers_.size(); ++r) mark_dead(r);
}

}  // namespace

std::unique_ptr<Communicator> make_tcp_communicator(std::size_t n_ranks,
                                                    WorkerMain worker_main,
                                                    const TcpOptions& options) {
  return std::make_unique<TcpCommunicator>(n_ranks, worker_main, options);
}

// ---------------------------------------------------------------------------
// Worker side.

std::size_t run_tcp_worker(const std::string& address,
                           const WorkerMain& worker_main) {
  WLSMS_EXPECTS(worker_main != nullptr);
  Socket sock = connect_with_timeout(address, kConnectTimeout);

  // Handshake: hello out, welcome (rank assignment) back. The welcome also
  // closes the four-timestamp clock probe opened by the hello, giving this
  // worker its offset to the controller clock before any spans are emitted.
  const std::uint64_t t0_us = obs::trace_now_us();
  const std::vector<std::byte> hello =
      frame_bytes(Message{kTagHello, hello_payload(t0_us)});
  if (!write_all(sock.get(), hello.data(), hello.size(),
                 StreamClock::now() + kHandshakeTimeout))
    throw CommError("tcp: handshake hello to '" + address + "' failed");
  Message welcome;
  try {
    welcome = read_frame(sock.get(), StreamClock::now() + kHandshakeTimeout);
  } catch (const CommError& error) {
    throw CommError("tcp: no welcome from controller at '" + address +
                    "': " + error.what());
  }
  const std::uint64_t t3_us = obs::trace_now_us();
  if (welcome.tag != kTagWelcome)
    throw CommError("tcp: no welcome from controller at '" + address + "'");
  std::uint64_t rank = 0;
  try {
    serial::Decoder decoder(welcome.payload);
    serial::read_header(decoder, serial::PayloadKind::kTcpWelcome);
    rank = decoder.get_u64();
    (void)decoder.get_u64();  // n_ranks; informational
    const std::uint64_t controller_node = decoder.get_u64();
    const std::uint64_t t1_us = decoder.get_u64();
    const std::uint64_t t2_us = decoder.get_u64();
    decoder.expect_end();
    const double offset_us =
        ((static_cast<double>(t1_us) - static_cast<double>(t0_us)) +
         (static_cast<double>(t2_us) - static_cast<double>(t3_us))) /
        2.0;
    obs::set_clock_offset(offset_us, controller_node);
    obs::Registry::instance()
        .gauge("comm.clock_offset_us")
        .set(offset_us);
  } catch (const serial::SerializationError& error) {
    throw CommError(std::string("tcp: malformed welcome: ") + error.what());
  }

  StreamWorkerChannel channel(sock.get(), static_cast<std::size_t>(rank));
  worker_main(channel);
  return static_cast<std::size_t>(rank);
}

}  // namespace wlsms::comm
