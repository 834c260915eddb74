#pragma once

/// \file framing.hpp
/// The byte-stream substrate shared by the socketpair (kProcess) and TCP
/// (kTcp) transports: one frame codec, one bounded writer, one
/// deadline-bounded one-shot frame reader (also behind the serve and status
/// handshakes), one frame reassembler, one worker-side channel, and one
/// controller-side base class — so the two transports differ only in how
/// their file descriptors come to exist (fork+socketpair vs
/// listen+accept+handshake) and how ranks are reaped.
///
/// Frame layout on the wire: [u32 length][u32 tag][payload], little-endian,
/// where `length` covers tag + payload. Hardening rules, enforced here for
/// every byte-stream transport:
///  - a frame whose length field would exceed kMaxFrameBytes is rejected on
///    the SEND side with CommError (a u32 length cannot represent a >=4 GiB
///    payload; silently truncating it would desync the stream — the
///    receiver enforces the same bound and kills the rank);
///  - every controller-side write carries an overall deadline
///    (StreamOptions::send_deadline), so a peer whose socket buffer stays
///    full — a SIGSTOPped child, a partitioned node — turns into a dead
///    rank instead of a controller wedged inside send();
///  - small frames to one rank are corked and flushed as one batched write
///    per poll cycle (StreamOptions::coalesce_budget), so a delta scatter
///    to many ranks plus the idle heartbeats does not pay one syscall —
///    and, over real networks, one TCP_NODELAY packet — per frame.

#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "comm/communicator.hpp"

namespace wlsms::comm {

/// Channel-level control tags, outside the application range. Application
/// tags must stay below these.
inline constexpr std::uint32_t kTagHeartbeat = 0xFFFFFFFEu;
inline constexpr std::uint32_t kTagShutdown = 0xFFFFFFFFu;
inline constexpr std::uint32_t kTagHello = 0xFFFFFFFDu;
inline constexpr std::uint32_t kTagWelcome = 0xFFFFFFFCu;

/// A frame length beyond this is a protocol violation (corrupt stream), not
/// a real message; both sides enforce it — the receiver kills the rank, the
/// sender throws before desyncing the stream.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

using StreamClock = std::chrono::steady_clock;

/// Appends the encoded frame of `message` to `out`. Throws CommError when
/// tag + payload would not fit a `max_frame_bytes`-bounded u32 length field
/// (the receiver would kill the rank for it; failing the send is the only
/// non-desyncing option). `max_frame_bytes` is a parameter so tests can
/// exercise the bound without gigabyte payloads.
void append_frame(std::vector<std::byte>& out, const Message& message,
                  std::uint32_t max_frame_bytes = kMaxFrameBytes);

/// The encoded frame of `message` as a fresh buffer. Same oversize rule.
std::vector<std::byte> frame_bytes(const Message& message,
                                   std::uint32_t max_frame_bytes =
                                       kMaxFrameBytes);

/// Writes exactly `n` bytes, waiting out EAGAIN on non-blocking sockets but
/// never past `deadline`. Returns false on peer death (EPIPE/ECONNRESET),
/// any other hard error, or deadline expiry with bytes still unwritten.
bool write_all(int fd, const void* data, std::size_t n,
               StreamClock::time_point deadline);

/// Reads exactly `n` bytes from a blocking fd; false on EOF or error.
bool read_all(int fd, void* data, std::size_t n);

/// Reads exactly one frame before `deadline`: the header, then that frame's
/// payload, and never a byte past it, so frames the peer queued right
/// behind it (a controller's first scatter behind the welcome, a daemon's
/// replayed results) stay in the kernel buffer for the stream's next
/// reader. Every read is preceded by a poll bounded by the deadline, so a
/// peer that stalls mid-frame cannot hold the caller past it. Throws
/// CommError naming the cause: timeout, EOF, read error, or a corrupt
/// length field (< 4 or > kMaxFrameBytes).
Message read_frame(int fd, StreamClock::time_point deadline);

/// Incremental reassembly of [u32 length][u32 tag][payload] frames from an
/// arbitrarily chunked byte stream.
class FrameAssembler {
 public:
  /// Appends raw received bytes.
  void push(const void* data, std::size_t n);

  /// Pops the next complete frame into `out`; returns false when no
  /// complete frame is buffered yet. Throws CommError on a corrupt length
  /// field (< 4 or > kMaxFrameBytes) — the stream cannot be resynchronized
  /// and the peer should be treated as dead.
  bool pop(Message& out);

  /// Bytes buffered but not yet popped (complete frames + partials).
  std::size_t buffered() const { return buffer_.size() - at_; }

  /// Drops everything buffered (after a corrupt stream, say).
  void reset();

 private:
  std::vector<std::byte> buffer_;
  std::size_t at_ = 0;  ///< consumed prefix, compacted lazily
};

/// Worker-side channel over any byte-stream fd (a socketpair end or a
/// handshaken TCP socket): blocking frame reads, idle heartbeats every
/// kHeartbeatInterval, controller heartbeats consumed silently, shutdown
/// tag or EOF -> nullopt.
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

/// Controller-side common machinery of the byte-stream transports: per-rank
/// liveness, frame reassembly, coalesced sends, heartbeat bookkeeping, and
/// the recv/poll loop. Derived classes create the fds (fork+socketpair or
/// listen+accept) and implement kill()/shutdown() (how a rank is terminated
/// and reaped is the one genuinely transport-specific piece).
class StreamCommunicatorBase : public Communicator {
 public:
  std::size_t n_ranks() const override { return peers_.size(); }
  bool alive(std::size_t rank) const override;
  bool send(std::size_t rank, const Message& message) override;
  std::optional<Incoming> recv(std::chrono::milliseconds timeout) override;
  std::uint64_t millis_since_heard(std::size_t rank) const override;

 protected:
  explicit StreamCommunicatorBase(StreamOptions options)
      : options_(options) {}

  struct Peer {
    int fd = -1;
    bool alive = true;
    FrameAssembler rx;
    std::vector<std::byte> tx;  ///< corked frames awaiting one batched write
    std::size_t tx_frames = 0;
    StreamClock::time_point cork_started{};
    StreamClock::time_point last_sent = StreamClock::now();
    StreamClock::time_point last_heard = StreamClock::now();
    /// Clock probes run on their own cadence: data traffic suppresses idle
    /// heartbeats (last_sent keeps advancing) but must not starve the
    /// offset estimate, or a busy run never refreshes its per-rank gauges.
    StreamClock::time_point last_probe{};
  };

  /// Registers a connected peer fd as the next rank. Construction-time only.
  void add_peer(int fd);

  /// Flips liveness off and closes the fd. Idempotent. Calls on_peer_dead
  /// exactly once per rank.
  void mark_dead(std::size_t rank);

  /// Transport hook, fired from mark_dead (first time only).
  virtual void on_peer_dead(std::size_t /*rank*/) {}

  /// Drains readable bytes of `rank` and extracts complete frames into
  /// pending_ (heartbeats only refresh last_heard). A corrupt frame or EOF
  /// marks the rank dead; frames completed before the failure still
  /// surface (the service layer discards posthumous gathers itself).
  void drain(std::size_t rank);

  /// Writes rank's corked frames as one batch; false marks the rank dead
  /// (send failure or deadline). True when nothing was corked.
  bool flush(std::size_t rank);
  void flush_all();

  /// Closes one heartbeat clock probe ([t0][t1][t2] echo from `rank`):
  /// estimates the rank's clock offset NTP-style and publishes it as the
  /// `comm.clock_offset_us.rank<k>` gauge.
  void observe_clock_echo(std::size_t rank,
                          const std::vector<std::byte>& payload);

  /// Marks every rank dead (closing every fd); the shutdown() preamble.
  void close_all_peers();

  const StreamOptions& stream_options() const { return options_; }
  bool shutting_down() const { return shut_down_; }
  void begin_shutdown() { shut_down_ = true; }

 private:
  /// Corks an idle heartbeat for every alive rank not written to within
  /// kHeartbeatInterval, so workers on a real network can tell a quiet
  /// controller from a dead one.
  void heartbeat_tick();

  StreamOptions options_;
  std::vector<Peer> peers_;
  std::deque<Incoming> pending_;
  bool shut_down_ = false;
};

/// Reaps forked children with ONE shared grace period: polls every pid in
/// `pids` (entries < 0 are already reaped and skipped) with WNOHANG until
/// all exit or `grace` elapses, then SIGKILLs the stragglers together and
/// collects them. Reaped entries are set to -1. Teardown cost is bounded by
/// one grace period regardless of how many ranks are stuck.
void reap_children(std::vector<pid_t>& pids, std::chrono::milliseconds grace);

}  // namespace wlsms::comm
