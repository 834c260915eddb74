#include "comm/framing.hpp"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wlsms::comm {

namespace {

/// Wire-level traffic counters of the byte-stream controller side. A batch
/// is one physical write (one syscall, and with TCP_NODELAY one packet);
/// frames/batches is the coalescing win bench_comm tracks.
struct StreamMetrics {
  obs::Counter& frames;
  obs::Counter& batches;
  obs::Counter& bytes;
  obs::Counter& heartbeats;
};

StreamMetrics& stream_metrics() {
  static StreamMetrics metrics{
      obs::Registry::instance().counter("comm.stream.frames_sent"),
      obs::Registry::instance().counter("comm.stream.batches_sent"),
      obs::Registry::instance().counter("comm.stream.bytes_sent"),
      obs::Registry::instance().counter("comm.stream.heartbeats_sent"),
  };
  return metrics;
}

int remaining_poll_ms(StreamClock::time_point deadline) {
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - StreamClock::now());
  if (remaining.count() <= 0) return 0;
  // Cap individual poll waits so the deadline is honored within ~1 s even
  // if the clock jumps between poll and the recheck.
  return static_cast<int>(std::min<std::int64_t>(remaining.count(), 1000));
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

}  // namespace

void append_frame(std::vector<std::byte>& out, const Message& message,
                  std::uint32_t max_frame_bytes) {
  // Length arithmetic in 64 bits: the historical bug was computing
  // 4 + payload.size() in u32, where a >= 2^32-4 payload silently wrapped
  // and desynced the stream.
  const std::uint64_t length = 4 + static_cast<std::uint64_t>(
                                       message.payload.size());
  if (length > max_frame_bytes)
    throw CommError("frame of " + std::to_string(message.payload.size()) +
                    " payload bytes exceeds the " +
                    std::to_string(max_frame_bytes) +
                    "-byte frame limit; refusing to desync the stream");
  const std::size_t base = out.size();
  out.resize(base + 8 + message.payload.size());
  auto put_u32 = [&out, base](std::size_t at, std::uint32_t v) {
    for (int k = 0; k < 4; ++k)
      out[base + at + static_cast<std::size_t>(k)] =
          static_cast<std::byte>((v >> (8 * k)) & 0xFFu);
  };
  put_u32(0, static_cast<std::uint32_t>(length));
  put_u32(4, message.tag);
  if (!message.payload.empty())
    std::memcpy(out.data() + base + 8, message.payload.data(),
                message.payload.size());
}

std::vector<std::byte> frame_bytes(const Message& message,
                                   std::uint32_t max_frame_bytes) {
  std::vector<std::byte> frame;
  append_frame(frame, message, max_frame_bytes);
  return frame;
}

bool write_all(int fd, const void* data, std::size_t n,
               StreamClock::time_point deadline) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    // MSG_DONTWAIT regardless of the fd's mode: a blocking ::send would
    // sleep inside the kernel with no way to enforce `deadline`, which is
    // exactly the controller-wedged-on-a-stopped-peer bug this deadline
    // exists to fix. Full-buffer conditions surface as EAGAIN and are
    // waited out in poll below, where the deadline is honored.
    const ssize_t wrote = ::send(fd, p, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (wrote > 0) {
      p += wrote;
      n -= static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int wait_ms = remaining_poll_ms(deadline);
      if (wait_ms <= 0) return false;  // peer unwritable past the deadline
      struct pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, wait_ms);
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

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

Message read_frame(int fd, StreamClock::time_point deadline) {
  const auto read_exact = [&](void* data, std::size_t n) {
    char* p = static_cast<char*>(data);
    while (n > 0) {
      const int wait_ms = remaining_poll_ms(deadline);
      if (wait_ms <= 0) throw CommError("frame read timed out");
      struct pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0 && errno != EINTR)
        throw CommError(std::string("frame read: poll failed: ") +
                        std::strerror(errno));
      if (ready <= 0) continue;  // EINTR or a capped wait: recheck deadline
      const ssize_t got = ::read(fd, p, n);
      if (got > 0) {
        p += got;
        n -= static_cast<std::size_t>(got);
        continue;
      }
      if (got == 0)
        throw CommError("peer closed the connection before a whole frame");
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
        throw CommError(std::string("frame read failed: ") +
                        std::strerror(errno));
    }
  };

  std::uint32_t header[2] = {0, 0};
  read_exact(header, sizeof(header));
  const std::uint32_t length = header[0];
  if (length < 4 || length > kMaxFrameBytes)
    throw CommError("corrupt frame length " + std::to_string(length));
  Message message;
  message.tag = header[1];
  message.payload.resize(length - 4);
  if (!message.payload.empty())
    read_exact(message.payload.data(), message.payload.size());
  return message;
}

// ---------------------------------------------------------------------------
// FrameAssembler

void FrameAssembler::push(const void* data, std::size_t n) {
  const auto* bytes = static_cast<const std::byte*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + n);
}

bool FrameAssembler::pop(Message& out) {
  if (buffer_.size() - at_ < 8) return false;
  auto get_u32 = [this](std::size_t from) {
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k)
      v |= static_cast<std::uint32_t>(buffer_[from + static_cast<std::size_t>(
                                                         k)])
           << (8 * k);
    return v;
  };
  const std::uint32_t length = get_u32(at_);
  if (length < 4 || length > kMaxFrameBytes)
    throw CommError("corrupt frame length " + std::to_string(length) +
                    " on the stream; peer is not speaking the protocol");
  if (buffer_.size() - at_ < 4 + static_cast<std::size_t>(length))
    return false;
  out.tag = get_u32(at_ + 4);
  out.payload.assign(buffer_.begin() + static_cast<std::ptrdiff_t>(at_ + 8),
                     buffer_.begin() +
                         static_cast<std::ptrdiff_t>(at_ + 4 + length));
  at_ += 4 + static_cast<std::size_t>(length);
  // Compact once the consumed prefix dominates, so long-lived streams do
  // not grow without bound while staying O(1) amortized.
  if (at_ >= 4096 && at_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(), buffer_.begin() +
                                       static_cast<std::ptrdiff_t>(at_));
    at_ = 0;
  }
  return true;
}

void FrameAssembler::reset() {
  buffer_.clear();
  at_ = 0;
}

// ---------------------------------------------------------------------------
// StreamWorkerChannel (child / remote-worker side)

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

// ---------------------------------------------------------------------------
// StreamCommunicatorBase (controller side)

void StreamCommunicatorBase::add_peer(int fd) {
  Peer peer;
  peer.fd = fd;
  peers_.push_back(std::move(peer));
}

bool StreamCommunicatorBase::alive(std::size_t rank) const {
  WLSMS_EXPECTS(rank < peers_.size());
  return peers_[rank].alive;
}

bool StreamCommunicatorBase::send(std::size_t rank, const Message& message) {
  WLSMS_EXPECTS(rank < peers_.size());
  Peer& peer = peers_[rank];
  if (!peer.alive) return false;
  stream_metrics().frames.inc();

  const bool corkable =
      options_.coalesce_budget.count() > 0 &&
      8 + message.payload.size() < options_.coalesce_max_bytes;
  if (!corkable) {
    // Order-preserving: anything already corked goes first.
    if (!flush(rank)) return false;
    const std::vector<std::byte> frame = frame_bytes(message);
    stream_metrics().batches.inc();
    stream_metrics().bytes.add(frame.size());
    peer.last_sent = StreamClock::now();
    if (!write_all(peer.fd, frame.data(), frame.size(),
                   StreamClock::now() + options_.send_deadline)) {
      mark_dead(rank);
      return false;
    }
    return true;
  }

  if (peer.tx.empty()) peer.cork_started = StreamClock::now();
  append_frame(peer.tx, message);
  ++peer.tx_frames;
  peer.last_sent = StreamClock::now();
  if (peer.tx.size() >= options_.coalesce_max_bytes ||
      StreamClock::now() - peer.cork_started >= options_.coalesce_budget)
    return flush(rank);
  return true;
}

bool StreamCommunicatorBase::flush(std::size_t rank) {
  Peer& peer = peers_[rank];
  if (!peer.alive) return false;
  if (peer.tx.empty()) return true;
  stream_metrics().batches.inc();
  stream_metrics().bytes.add(peer.tx.size());
  const bool ok = write_all(peer.fd, peer.tx.data(), peer.tx.size(),
                            StreamClock::now() + options_.send_deadline);
  peer.tx.clear();
  peer.tx_frames = 0;
  peer.last_sent = StreamClock::now();
  if (!ok) {
    mark_dead(rank);
    return false;
  }
  return true;
}

void StreamCommunicatorBase::flush_all() {
  for (std::size_t r = 0; r < peers_.size(); ++r)
    if (peers_[r].alive && !peers_[r].tx.empty()) (void)flush(r);
}

void StreamCommunicatorBase::heartbeat_tick() {
  const StreamClock::time_point now = StreamClock::now();
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    Peer& peer = peers_[r];
    if (!peer.alive) continue;
    if (now - peer.last_sent < kHeartbeatInterval &&
        now - peer.last_probe < kHeartbeatInterval)
      continue;
    if (peer.tx.empty()) peer.cork_started = now;
    // Each heartbeat doubles as a clock probe: it carries our send
    // timestamp, and the worker's echo closes the four-timestamp offset
    // estimate in drain(). Probes run on their own cadence (last_probe)
    // so a busy link — where data traffic suppresses idle heartbeats —
    // still refreshes the offset estimate every interval. The cork flushes
    // within this poll cycle, so the stamped t0 is at most the flush
    // latency stale.
    Message probe{kTagHeartbeat, std::vector<std::byte>(kClockProbeBytes)};
    put_u64_le(probe.payload.data(), obs::trace_now_us());
    append_frame(peer.tx, probe);
    ++peer.tx_frames;
    peer.last_sent = now;
    peer.last_probe = now;
    stream_metrics().frames.inc();
    stream_metrics().heartbeats.inc();
  }
}

void StreamCommunicatorBase::drain(std::size_t rank) {
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

std::optional<Incoming> StreamCommunicatorBase::recv(
    std::chrono::milliseconds timeout) {
  const StreamClock::time_point deadline = StreamClock::now() + timeout;
  while (true) {
    if (!pending_.empty()) {
      Incoming incoming = std::move(pending_.front());
      pending_.pop_front();
      return incoming;
    }
    // Every poll cycle: top up idle heartbeats, then flush all corked
    // frames — this is the "flushed on retrieve" half of the coalescing
    // contract (the age/size triggers inside send() are the other half).
    heartbeat_tick();
    flush_all();

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

void StreamCommunicatorBase::observe_clock_echo(
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

std::uint64_t StreamCommunicatorBase::millis_since_heard(
    std::size_t rank) const {
  WLSMS_EXPECTS(rank < peers_.size());
  if (!peers_[rank].alive) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          StreamClock::now() - peers_[rank].last_heard)
          .count());
}

void StreamCommunicatorBase::mark_dead(std::size_t rank) {
  Peer& peer = peers_[rank];
  if (!peer.alive) return;
  peer.alive = false;
  peer.tx.clear();
  peer.tx_frames = 0;
  if (!shut_down_)
    log_debug("comm: stream rank ", rank, " endpoint closed; marking dead");
  if (peer.fd >= 0) {
    ::close(peer.fd);
    peer.fd = -1;
  }
  on_peer_dead(rank);
}

void StreamCommunicatorBase::close_all_peers() {
  for (std::size_t r = 0; r < peers_.size(); ++r) mark_dead(r);
}

// ---------------------------------------------------------------------------

void reap_children(std::vector<pid_t>& pids, std::chrono::milliseconds grace) {
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

}  // namespace wlsms::comm
