#include "comm/framing.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace wlsms::comm {

namespace {

int remaining_poll_ms(StreamClock::time_point deadline) {
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - StreamClock::now());
  if (remaining.count() <= 0) return 0;
  // Cap individual poll waits so the deadline is honored within ~1 s even
  // if the clock jumps between poll and the recheck.
  return static_cast<int>(std::min<std::int64_t>(remaining.count(), 1000));
}

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

}  // namespace wlsms::comm
