#include "serve/status.hpp"

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "comm/framing.hpp"
#include "comm/socket.hpp"
#include "common/error.hpp"
#include "common/serial.hpp"
#include "obs/prometheus.hpp"
#include "serve/protocol.hpp"

namespace wlsms::serve {

namespace {

constexpr std::chrono::milliseconds kConnectionWindow{2000};

}  // namespace

StatusServer::StatusServer(const std::string& listen) {
  comm::Socket listener = comm::make_listener(listen, 8, address_);
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0)
    throw comm::CommError(std::string("status: self-pipe failed: ") +
                          std::strerror(errno));
  stop_read_ = pipe_fds[0];
  stop_write_ = pipe_fds[1];
  comm::set_cloexec(stop_read_);
  comm::set_cloexec(stop_write_);
  listener_ = listener.release();
  thread_ = std::thread([this] { serve_loop(); });
}

StatusServer::~StatusServer() {
  const char byte = 's';
  (void)!::write(stop_write_, &byte, 1);
  if (thread_.joinable()) thread_.join();
  if (listener_ >= 0) ::close(listener_);
  if (stop_read_ >= 0) ::close(stop_read_);
  if (stop_write_ >= 0) ::close(stop_write_);
}

void StatusServer::serve_loop() {
  while (true) {
    struct pollfd pfds[2] = {{stop_read_, POLLIN, 0}, {listener_, POLLIN, 0}};
    const int rc = ::poll(pfds, 2, -1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0) return;
    if (pfds[0].revents & POLLIN) return;  // destructor asked us to stop
    if (!(pfds[1].revents & POLLIN)) continue;
    comm::Socket conn(::accept(listener_, nullptr, nullptr));
    if (conn.get() < 0) continue;
    comm::set_nodelay(conn.get());
    comm::set_cloexec(conn.get());
    // One bounded request/reply per connection; a bad or slow client costs
    // at most the connection window, and can neither crash the loop nor
    // hold it open.
    try {
      const auto deadline = comm::StreamClock::now() + kConnectionWindow;
      const comm::Message request = comm::read_frame(conn.get(), deadline);
      if (request.tag != kTagServeStatus) continue;
      decode_status_request(request.payload);
      comm::Message reply;
      reply.tag = kTagServeStatusReply;
      reply.payload = encode_status_text(obs::expose_prometheus());
      const std::vector<std::byte> bytes = comm::frame_bytes(reply);
      (void)comm::write_all(conn.get(), bytes.data(), bytes.size(), deadline);
    } catch (const comm::CommError&) {
    } catch (const serial::SerializationError&) {
    }
  }
}

std::string fetch_status(const std::string& address,
                         std::chrono::milliseconds timeout) {
  comm::Socket sock = comm::connect_with_timeout(address, timeout);
  const auto deadline = comm::StreamClock::now() + timeout;
  comm::Message request;
  request.tag = kTagServeStatus;
  request.payload = encode_status_request();
  const std::vector<std::byte> bytes = comm::frame_bytes(request);
  if (!comm::write_all(sock.get(), bytes.data(), bytes.size(), deadline))
    throw comm::CommError("status: request write failed");
  comm::Message reply = comm::read_frame(sock.get(), deadline);
  while (reply.tag == comm::kTagHeartbeat)
    reply = comm::read_frame(sock.get(), deadline);
  if (reply.tag != kTagServeStatusReply)
    throw comm::CommError("status: unexpected reply tag " +
                          std::to_string(reply.tag));
  return decode_status_text(reply.payload);
}

}  // namespace wlsms::serve
