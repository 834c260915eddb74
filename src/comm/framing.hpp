#pragma once

/// \file framing.hpp
/// The byte-stream frame layer shared by the TCP transport (comm/tcp.cpp)
/// and the serve daemon, its client and its status probe: one frame codec,
/// one deadline-bounded writer, one deadline-bounded one-shot frame reader
/// (behind every handshake), and one frame reassembler. The TCP transport's
/// TcpCommunicator is the controller that drives them for the WL master.
///
/// Frame layout on the wire: [u32 length][u32 tag][payload], little-endian,
/// where `length` covers tag + payload. Hardening rules, enforced here for
/// every byte stream:
///  - a frame whose length field would exceed kMaxFrameBytes is rejected on
///    the SEND side with CommError (a u32 length cannot represent a >=4 GiB
///    payload; silently truncating it would desync the stream — the
///    receiver enforces the same bound and kills the rank);
///  - every write carries an overall deadline (write_all), so a peer whose
///    socket buffer stays full — a SIGSTOPped worker, a partitioned node —
///    turns into a dead peer instead of a writer wedged inside send();
///  - every one-shot read carries one too (read_frame), so a peer that
///    stalls mid-frame cannot hold a handshake past its window.

#include <chrono>
#include <cstddef>
#include <cstdint>
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

}  // namespace wlsms::comm
