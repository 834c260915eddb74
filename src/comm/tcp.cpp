// TCP Communicator: the multi-node transport. The controller binds a
// listening socket, workers dial in — from other nodes via `wlsms worker
// --connect host:port`, or (for loopback tests and single-host runs) as
// fork()ed local children — and each connection becomes one rank after a
// magic/version handshake framed in the shared WLSM serial schema. From
// then on the stream is indistinguishable from the socketpair transport:
// the same [u32 length][u32 tag] frames, coalesced controller writes,
// bounded send deadlines, idle heartbeats both ways, and EOF/ECONNRESET
// death detection feeding alive()/millis_since_heard (comm/framing).
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

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

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
// Controller side.

class TcpCommunicator final : public StreamCommunicatorBase {
 public:
  TcpCommunicator(std::size_t n_ranks, const WorkerMain& worker_main,
                  const TcpOptions& options);
  ~TcpCommunicator() override { shutdown(); }

  void kill(std::size_t rank) override;
  void shutdown() override;

 private:
  /// Pid of rank r's locally spawned worker, or -1 (external / reaped).
  std::vector<pid_t> pids_;
};

TcpCommunicator::TcpCommunicator(std::size_t n_ranks,
                                 const WorkerMain& worker_main,
                                 const TcpOptions& options)
    : StreamCommunicatorBase(options.stream) {
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
    // Loopback workers, forked exactly like the kProcess transport (same
    // copy-on-write solver reuse, same _exit discipline) but connected
    // through the real listener so the full accept/handshake path runs.
    // Each child is accepted before the next is forked, so rank r is the
    // r-th child and kill(r) signals the process behind rank r's socket;
    // forked all at once, the children's connect order would pick ranks.
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
        begin_shutdown();
        close_all_peers();
        int status = 0;
        try {
          (void)run_tcp_worker(connect_address, worker_main,
                               options.connect_timeout);
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
  if (shutting_down()) return;
  begin_shutdown();
  close_all_peers();
  reap_children(pids_, stream_options().shutdown_grace);
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
                           const WorkerMain& worker_main,
                           std::chrono::milliseconds connect_timeout) {
  WLSMS_EXPECTS(worker_main != nullptr);
  Socket sock = connect_with_timeout(address, connect_timeout);

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
