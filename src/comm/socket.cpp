#include "comm/socket.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "comm/communicator.hpp"

namespace wlsms::comm {

HostPort split_address(const std::string& address) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == address.size())
    throw CommError("tcp: address '" + address +
                    "' is not of the form host:port");
  return {address.substr(0, colon), address.substr(colon + 1)};
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket make_listener(const std::string& address, int backlog,
                     std::string& bound_address) {
  const HostPort bind_to = split_address(address);
  struct addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  struct addrinfo* resolved = nullptr;
  const int rc = ::getaddrinfo(bind_to.host.c_str(), bind_to.port.c_str(),
                               &hints, &resolved);
  if (rc != 0)
    throw CommError("tcp: cannot resolve listen address '" + address +
                    "': " + ::gai_strerror(rc));
  Socket listener(::socket(resolved->ai_family, resolved->ai_socktype, 0));
  if (listener.get() < 0) {
    ::freeaddrinfo(resolved);
    throw CommError(std::string("tcp: socket failed: ") +
                    std::strerror(errno));
  }
  set_cloexec(listener.get());
  int one = 1;
  (void)::setsockopt(listener.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  const int bind_rc =
      ::bind(listener.get(), resolved->ai_addr, resolved->ai_addrlen);
  ::freeaddrinfo(resolved);
  if (bind_rc != 0)
    throw CommError("tcp: bind to '" + address +
                    "' failed: " + std::strerror(errno));
  if (::listen(listener.get(), backlog) != 0)
    throw CommError(std::string("tcp: listen failed: ") +
                    std::strerror(errno));
  struct sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listener.get(),
                    reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0)
    throw CommError(std::string("tcp: getsockname failed: ") +
                    std::strerror(errno));
  bound_address = bind_to.host + ":" + std::to_string(ntohs(bound.sin_port));
  return listener;
}

Socket connect_with_timeout(const std::string& address,
                            std::chrono::milliseconds timeout) {
  const HostPort target = split_address(address);
  struct addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  struct addrinfo* resolved = nullptr;
  const int rc = ::getaddrinfo(target.host.c_str(), target.port.c_str(),
                               &hints, &resolved);
  if (rc != 0)
    throw CommError("tcp: cannot resolve '" + address +
                    "': " + ::gai_strerror(rc));
  Socket sock;
  std::string last_error = "no addresses";
  for (struct addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    Socket candidate(::socket(ai->ai_family, ai->ai_socktype, 0));
    if (candidate.get() < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    const int flags = ::fcntl(candidate.get(), F_GETFL, 0);
    (void)::fcntl(candidate.get(), F_SETFL, flags | O_NONBLOCK);
    const int connect_rc =
        ::connect(candidate.get(), ai->ai_addr, ai->ai_addrlen);
    if (connect_rc != 0 && errno != EINPROGRESS) {
      last_error = std::string("connect: ") + std::strerror(errno);
      continue;
    }
    if (connect_rc != 0) {
      struct pollfd pfd{candidate.get(), POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
      if (ready <= 0) {
        last_error = "connect timed out";
        continue;
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      (void)::getsockopt(candidate.get(), SOL_SOCKET, SO_ERROR, &so_error,
                         &len);
      if (so_error != 0) {
        last_error = std::string("connect: ") + std::strerror(so_error);
        continue;
      }
    }
    // Connected: back to blocking for the caller's reads.
    (void)::fcntl(candidate.get(), F_SETFL, flags);
    sock = std::move(candidate);
    break;
  }
  ::freeaddrinfo(resolved);
  if (sock.get() < 0)
    throw CommError("tcp: cannot connect to '" + address +
                    "': " + last_error);
  set_nodelay(sock.get());
  set_cloexec(sock.get());
  return sock;
}

}  // namespace wlsms::comm
