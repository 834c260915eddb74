#pragma once

/// \file socket.hpp
/// TCP socket plumbing for every TCP endpoint: the distributed transport
/// (comm/tcp.cpp), the serve daemon and client, and the status probe. RAII
/// fd ownership, host:port splitting, and the bind/listen and
/// bounded-connect rituals live here once. Frames over the resulting
/// sockets are comm/framing's business.

#include <chrono>
#include <string>

namespace wlsms::comm {

struct HostPort {
  std::string host;
  std::string port;
};

/// Splits "host:port" at the last colon; throws CommError unless both
/// halves are non-empty.
HostPort split_address(const std::string& address);

void set_nodelay(int fd);
void set_cloexec(int fd);

/// RAII socket so every throw path closes cleanly.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  int get() const { return fd_; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void close();

 private:
  int fd_ = -1;
};

/// Binds and listens on `address` (port 0 = kernel-assigned); returns the
/// close-on-exec listener and writes the resolved host:port to
/// `bound_address`. Throws CommError on resolve, bind or listen failure.
Socket make_listener(const std::string& address, int backlog,
                     std::string& bound_address);

/// Non-blocking connect with a deadline (a black-holed address fails in
/// `timeout`, not the kernel's multi-minute SYN retry). Returns a connected
/// blocking socket with TCP_NODELAY and close-on-exec set; throws CommError
/// on failure.
Socket connect_with_timeout(const std::string& address,
                            std::chrono::milliseconds timeout);

}  // namespace wlsms::comm
