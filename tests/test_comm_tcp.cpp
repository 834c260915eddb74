// TCP Communicator tests over loopback: the handshake (including garbage
// connections that must be rejected without consuming a rank slot), echo
// plumbing and large frames through real TCP sockets, worker death (SIGKILL
// and a crashing worker are immediate EOF death), a SIGSTOPped worker that
// must trip the send deadline instead of wedging the controller, teardown
// that reaps stragglers within one shared grace period, corrupt-stream
// rank death, and the distributed energy service end to end — energies
// bit-identical to the serial solver, a move-local walk, and kill-a-rank
// failover, mirroring the thread-backed suite (test_comm_transport.cpp) —
// plus a hostile worker whose out-of-assignment gathers must be rejected,
// a wedged worker that must be killed at the heartbeat timeout, and a
// stalled controller that must not hold a worker past its handshake
// deadline.
//
// In the `net` ctest label, NOT `sanitize`: these tests fork worker
// processes and open real sockets, which tsan does not support. The
// asan-ubsan preset runs the `net` label too.
#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "comm/distributed_service.hpp"
#include "comm/framing.hpp"
#include "comm/socket.hpp"
#include "comm/wire.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "move_local_walk.hpp"
#include "obs/metrics.hpp"
#include "wl/energy_function.hpp"

namespace wlsms::comm {
namespace {

using namespace std::chrono_literals;

Message text_message(std::uint32_t tag, const std::string& text) {
  Message message;
  message.tag = tag;
  message.payload.resize(text.size());
  if (!text.empty())
    std::memcpy(message.payload.data(), text.data(), text.size());
  return message;
}

void echo_worker(WorkerChannel& channel) {
  while (std::optional<Message> message = channel.recv())
    channel.send(*message);
}

TEST(TcpCommunicator, EchoAcrossForkedLoopbackWorkers) {
  // Each worker computes its reply (tag + 1, same payload), so the tag
  // proves the frame went through the worker process and back.
  constexpr std::size_t kRanks = 4;
  auto comm = make_tcp_communicator(
      kRanks,
      [](WorkerChannel& channel) {
        while (std::optional<Message> message = channel.recv())
          channel.send({message->tag + 1, message->payload});
      },
      TcpOptions{});
  EXPECT_EQ(comm->n_alive(), kRanks);
  for (std::size_t r = 0; r < kRanks; ++r)
    EXPECT_TRUE(comm->send(r, text_message(static_cast<std::uint32_t>(r),
                                           "rank" + std::to_string(r))));
  std::vector<bool> seen(kRanks, false);
  for (std::size_t k = 0; k < kRanks; ++k) {
    std::optional<Incoming> incoming;
    while (!incoming) incoming = comm->recv(500ms);
    EXPECT_EQ(incoming->message.tag, incoming->rank + 1);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(
                              incoming->message.payload.data()),
                          incoming->message.payload.size()),
              "rank" + std::to_string(incoming->rank));
    EXPECT_FALSE(seen[incoming->rank]);
    seen[incoming->rank] = true;
  }
  comm->shutdown();
  EXPECT_EQ(comm->n_alive(), 0u);
}

TEST(TcpCommunicator, LargeFrameSurvivesTcp) {
  // Bigger than any socket buffer, so both the chunked write (EAGAIN +
  // poll) and the reassembling reader are exercised; both workers echo at
  // once, so the controller reassembles two frames side by side.
  constexpr std::size_t kRanks = 2;
  auto comm = make_tcp_communicator(kRanks, echo_worker, TcpOptions{});
  std::vector<std::string> bigs;
  for (std::size_t r = 0; r < kRanks; ++r) {
    std::string big(1 << 22, static_cast<char>('x' + r));  // 4 MiB
    for (std::size_t i = 0; i < big.size(); i += 4096)
      big[i] = static_cast<char>('a' + (r + i / 4096) % 26);
    EXPECT_TRUE(comm->send(r, text_message(7, big)));
    bigs.push_back(std::move(big));
  }
  for (std::size_t k = 0; k < kRanks; ++k) {
    std::optional<Incoming> incoming;
    while (!incoming) incoming = comm->recv(1000ms);
    const std::string& big = bigs[incoming->rank];
    ASSERT_EQ(incoming->message.payload.size(), big.size());
    EXPECT_EQ(std::memcmp(incoming->message.payload.data(), big.data(),
                          big.size()),
              0)
        << "rank " << incoming->rank;
  }
}

TEST(TcpCommunicator, SigkillIsImmediateEofDeath) {
  auto comm = make_tcp_communicator(2, echo_worker, TcpOptions{});
  comm->kill(0);
  comm->kill(0);  // idempotent
  EXPECT_FALSE(comm->alive(0));
  EXPECT_TRUE(comm->alive(1));
  EXPECT_FALSE(comm->send(0, text_message(1, "gone")));
  EXPECT_TRUE(comm->send(1, text_message(2, "alive")));
  std::optional<Incoming> incoming;
  while (!incoming) incoming = comm->recv(500ms);
  EXPECT_EQ(incoming->rank, 1u);
}

TEST(TcpCommunicator, CrashingWorkerIsRankDeath) {
  // The worker throws on its first message, so the spawned child _exit(1)s;
  // the controller must see EOF-death, not hang.
  auto comm = make_tcp_communicator(
      1,
      [](WorkerChannel& channel) {
        (void)channel.recv();
        throw Error("child dies");
      },
      TcpOptions{});
  EXPECT_TRUE(comm->send(0, text_message(1, "trigger")));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (comm->alive(0) && std::chrono::steady_clock::now() < deadline)
    (void)comm->recv(50ms);
  EXPECT_FALSE(comm->alive(0));
}

TEST(TcpCommunicator, StoppedWorkerTripsTheSendDeadlineNotAHang) {
  // Regression: the controller's write loop used to poll forever when the
  // peer's socket buffer stayed full, so a SIGSTOPped worker (or a
  // partitioned peer) wedged the controller inside send(). Now the send
  // deadline expires, send() returns false, and the rank is dead.
  TcpOptions options;
  options.send_deadline = 300ms;
  auto comm = make_tcp_communicator(
      1,
      [](WorkerChannel& channel) {
        // Report our pid, then go quiet (never read again) so the socket
        // fills once we're stopped.
        const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
        Message hello;
        hello.tag = 1;
        hello.payload.resize(sizeof(pid));
        std::memcpy(hello.payload.data(), &pid, sizeof(pid));
        channel.send(hello);
        for (;;) ::usleep(100000);
      },
      options);

  std::optional<Incoming> incoming;
  while (!incoming) incoming = comm->recv(500ms);
  std::uint64_t pid = 0;
  ASSERT_EQ(incoming->message.payload.size(), sizeof(pid));
  std::memcpy(&pid, incoming->message.payload.data(), sizeof(pid));
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGSTOP), 0);

  // Every send is one bounded write. The socket buffers absorb a few 1 MiB
  // frames, then the deadline must trip — bounded by iterations * deadline,
  // not forever.
  const Message big{2, std::vector<std::byte>(1 << 20)};
  bool failed = false;
  for (int k = 0; k < 64 && !failed; ++k) failed = !comm->send(0, big);
  EXPECT_TRUE(failed) << "send() never failed against a stopped reader";
  EXPECT_FALSE(comm->alive(0));

  // SIGKILL works on a stopped process; teardown must not hang either.
  comm->kill(0);
  comm->shutdown();
}

TEST(TcpCommunicator, ShutdownReapsStragglersInParallel) {
  // Regression: shutdown() used to give EACH child its own grace period
  // sequentially (up to 5 s per rank). Four workers that ignore EOF must
  // now share ONE grace period and be SIGKILLed together: teardown is
  // O(grace), not O(ranks * grace).
  TcpOptions options;
  options.shutdown_grace = 600ms;
  auto comm = make_tcp_communicator(
      4,
      [](WorkerChannel& channel) {
        (void)channel;  // never reads: EOF on shutdown is ignored
        for (;;) ::usleep(100000);
      },
      options);
  EXPECT_EQ(comm->n_alive(), 4u);

  const auto start = std::chrono::steady_clock::now();
  comm->shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // One shared grace (600 ms) + kill/reap overhead. The old sequential
  // behavior would take >= 4 * 600 ms = 2.4 s.
  EXPECT_LT(elapsed, 1800ms)
      << "shutdown took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms; stragglers are being reaped sequentially";
  EXPECT_EQ(comm->n_alive(), 0u);
}

TEST(TcpCommunicator, ExternalWorkersJoinAndGarbageConnectionsAreRejected) {
  // spawn_workers = false: the controller only listens; "remote" workers
  // are threads of this test running the public run_tcp_worker entry point
  // — the same code path `wlsms worker --connect` uses. Before the real
  // workers join, a garbage connection (wrong magic, no valid hello) must
  // be rejected WITHOUT consuming one of the two rank slots. The garbage
  // connection is made before the workers start: the listener closes once
  // both ranks are in, so a later connect would be refused.
  std::vector<std::thread> workers;
  TcpOptions options;
  options.spawn_workers = false;
  options.on_listening = [&](const std::string& address) {
    Socket garbage = connect_with_timeout(address, 2s);
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    (void)::send(garbage.get(), junk, sizeof(junk), MSG_NOSIGNAL);
    garbage.close();
    for (int k = 0; k < 2; ++k)
      workers.emplace_back([address] {
        (void)run_tcp_worker(address, echo_worker);
      });
  };
  auto comm = make_tcp_communicator(2, nullptr, options);
  EXPECT_EQ(comm->n_alive(), 2u);
  EXPECT_TRUE(comm->send(0, text_message(5, "over tcp")));
  std::optional<Incoming> incoming;
  while (!incoming) incoming = comm->recv(500ms);
  EXPECT_EQ(incoming->rank, 0u);
  EXPECT_EQ(incoming->message.tag, 5u);
  comm->shutdown();  // workers see EOF and return
  for (std::thread& w : workers) w.join();
}

TEST(TcpCommunicator, CorruptFrameAfterHandshakeIsRankDeathNotCrash) {
  // A worker that handshakes correctly, then floods the stream with a
  // corrupt length field: the controller must mark the rank dead and keep
  // serving the healthy rank, never crash or wedge.
  std::thread rogue;
  std::vector<std::thread> workers;
  TcpOptions options;
  options.spawn_workers = false;
  options.on_listening = [&](const std::string& address) {
    rogue = std::thread([address] {
      Socket sock = connect_with_timeout(address, 2s);
      const int fd = sock.get();
      serial::Encoder hello;
      serial::write_header(hello, serial::PayloadKind::kTcpHello);
      hello.put_u64(0);  // trace node
      hello.put_u64(0);  // clock-probe t0
      const std::vector<std::byte> frame =
          frame_bytes(Message{kTagHello, hello.take()});
      ASSERT_TRUE(write_all(fd, frame.data(), frame.size(),
                            StreamClock::now() + 2s));
      // Swallow the welcome, then betray the protocol: a length field far
      // beyond kMaxFrameBytes.
      ASSERT_EQ(read_frame(fd, StreamClock::now() + 2s).tag, kTagWelcome);
      const std::uint8_t corrupt[8] = {0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0};
      (void)::send(fd, corrupt, sizeof(corrupt), MSG_NOSIGNAL);
      // Stay connected so death comes from the corrupt frame, not EOF.
      char sink;
      (void)::recv(fd, &sink, 1, 0);
    });
    workers.emplace_back([address] {
      (void)run_tcp_worker(address, echo_worker);
    });
  };
  auto comm = make_tcp_communicator(2, nullptr, options);

  // Drive recv until the corrupt stream is drained and the rogue rank dies.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (comm->n_alive() == 2 && std::chrono::steady_clock::now() < deadline)
    (void)comm->recv(50ms);
  EXPECT_EQ(comm->n_alive(), 1u);

  // The surviving rank still echoes.
  std::size_t healthy = comm->alive(0) ? 0 : 1;
  EXPECT_TRUE(comm->send(healthy, text_message(6, "still here")));
  std::optional<Incoming> incoming;
  while (!incoming) incoming = comm->recv(500ms);
  EXPECT_EQ(incoming->rank, healthy);
  comm->shutdown();
  rogue.join();
  for (std::thread& w : workers) w.join();
}

TEST(TcpWorker, PartialWelcomeThenSilenceFailsAtTheHandshakeDeadline) {
  // A fake controller reads the hello, sends a welcome header promising 996
  // payload bytes, and stalls. The worker must give up at its handshake
  // deadline, not block until the controller closes the connection.
  std::string address;
  Socket listener = make_listener("127.0.0.1:0", 1, address);
  std::thread controller([&listener] {
    Socket conn(::accept(listener.get(), nullptr, nullptr));
    EXPECT_NO_THROW((void)read_frame(conn.get(), StreamClock::now() + 5s));
    const std::uint32_t header[2] = {1000, kTagWelcome};
    EXPECT_TRUE(write_all(conn.get(), header, sizeof(header),
                          StreamClock::now() + 1s));
    // Stall well past the worker's deadline; its close ends the wait early.
    struct pollfd pfd{conn.get(), POLLIN, 0};
    (void)::poll(&pfd, 1, static_cast<int>((kHandshakeTimeout + 4s).count()));
  });
  const auto start = StreamClock::now();
  EXPECT_THROW(run_tcp_worker(address, echo_worker), CommError);
  EXPECT_LT(StreamClock::now() - start, kHandshakeTimeout + 1s);
  controller.join();
}

struct Fe16 {
  std::shared_ptr<const lsms::LsmsSolver> solver;
  std::unique_ptr<wl::LsmsEnergy> energy;
};

const Fe16& fe16() {
  static Fe16 fixture = [] {
    Fe16 f;
    f.solver = std::make_shared<const lsms::LsmsSolver>(
        lattice::make_fe_supercell(2), lsms::fe_lsms_parameters_fast());
    f.energy = std::make_unique<wl::LsmsEnergy>(f.solver);
    return f;
  }();
  return fixture;
}

TEST(TcpDistributedService, BitIdenticalToSerialSolver) {
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 2;
  config.group_size = 2;
  config.transport = Transport::kTcp;
  DistributedEnergyService distributed(f.solver, config);
  EXPECT_EQ(distributed.n_workers(), 4u);

  Rng rng(41);
  constexpr std::size_t kEvals = 6;
  std::vector<spin::MomentConfiguration> configs;
  for (std::size_t k = 0; k < kEvals; ++k)
    configs.push_back(spin::MomentConfiguration::random(16, rng));
  for (std::size_t k = 0; k < kEvals; ++k)
    distributed.submit({k % 2, k + 1, configs[k]});
  std::vector<double> got(kEvals, 0.0);
  for (std::size_t k = 0; k < kEvals; ++k) {
    const wl::EnergyResult r = distributed.retrieve();
    EXPECT_FALSE(r.failed);
    got[r.ticket - 1] = r.energy;
  }
  for (std::size_t k = 0; k < kEvals; ++k)
    EXPECT_EQ(got[k], f.energy->total_energy(configs[k]))
        << "eval " << k << " differs from the serial solver";
}

TEST(TcpDistributedService, KilledWorkerMidRunRequestCompletes) {
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 1;
  config.group_size = 2;
  config.transport = Transport::kTcp;
  DistributedEnergyService distributed(f.solver, config);

  Rng rng(42);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  distributed.submit({0, 1, moments});
  // SIGKILL one assigned TCP worker right after the scatter: ECONNRESET/EOF
  // on its socket must reroute the shard to the survivor.
  distributed.communicator().kill(0);
  const wl::EnergyResult result = distributed.retrieve();
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.energy, f.energy->total_energy(moments));
  EXPECT_EQ(distributed.n_alive_workers(), 1u);
  EXPECT_GE(distributed.reroutes(), 1u);

  distributed.submit({0, 2, moments});
  EXPECT_EQ(distributed.retrieve().energy, f.energy->total_energy(moments));
}

TEST(TcpDistributedService, MoveLocalWalkOverTcpIsBitIdentical) {
  const auto& solver = fe54_solver();
  DistributedConfig config;
  config.n_groups = 2;
  config.group_size = 2;
  config.transport = Transport::kTcp;
  DistributedEnergyService distributed(solver, config);
  expect_move_local_walk(distributed, *solver, 3, 6, 44);
}

/// A rank that answers every shard request with a gather other than its
/// assignment: its first zone plus 2^64 - 1, or every zone of the
/// configuration (the other rank's included). Zero energies throughout.
void hostile_worker(WorkerChannel& channel, bool past_the_end) {
  while (std::optional<Message> message = channel.recv()) {
    if (message->tag != kTagShardRequest) continue;
    const ShardRequest request = decode_shard_request(message->payload);
    ShardResult result;
    result.ticket = request.ticket;
    result.attempt = request.attempt;
    if (past_the_end) {
      result.zones = {request.zones.front(), ~std::uint64_t{0}};
    } else {
      for (std::uint64_t zone = 0; zone < request.config.size(); ++zone)
        result.zones.push_back(zone);
    }
    result.energies.assign(result.zones.size(), 0.0);
    channel.send({kTagShardResult, encode_shard_result(result)});
  }
}

TEST(TcpDistributedService, HostileGatherIsKilledAndRerouted) {
  // Regression: the controller used to trust a gather's atom range, and a
  // rank replying first_atom = 2^64 - 1 with two energies wrapped the
  // bounds check and wrote before the gather buffers. The fake workers
  // are threads of this process dialing in like `wlsms worker`; rank 1 is
  // hostile. The controller must kill it and re-solve its zones on rank 0.
  const Fe16& f = fe16();
  for (const bool past_the_end : {true, false}) {
    std::vector<std::thread> workers;
    DistributedConfig config;
    config.n_groups = 1;
    config.group_size = 2;
    config.transport = Transport::kTcp;
    config.tcp.spawn_workers = false;
    config.tcp.on_listening = [&](const std::string& address) {
      for (int k = 0; k < 2; ++k)
        workers.emplace_back([&f, address, past_the_end] {
          (void)run_tcp_worker(address, [&](WorkerChannel& channel) {
            if (channel.rank() == 1)
              hostile_worker(channel, past_the_end);
            else
              run_shard_worker(channel, f.solver);
          });
        });
    };
    {
      DistributedEnergyService distributed(f.solver, config);
      Rng rng(45);
      const auto moments = spin::MomentConfiguration::random(16, rng);
      distributed.submit({0, 1, moments});
      const wl::EnergyResult result = distributed.retrieve();
      EXPECT_FALSE(result.failed);
      EXPECT_EQ(result.energy, f.energy->total_energy(moments))
          << (past_the_end ? "index past the end" : "another rank's zones");
      EXPECT_FALSE(distributed.communicator().alive(1));
      EXPECT_GE(distributed.reroutes(), 1u);
    }  // shutdown: the honest worker sees EOF and returns
    for (std::thread& worker : workers) worker.join();
  }
}

TEST(TcpDistributedService, WedgedRankIsKilledAndRerouted) {
  // The heartbeat branch of check_health: rank 1 takes its first shard
  // request and then goes silent for about a second — no gather and no
  // heartbeat — while heartbeat_timeout is 300 ms. The controller must
  // count the miss, kill the rank and re-solve its zones on rank 0. The
  // workers are threads of this process dialing in like `wlsms worker`.
  const Fe16& f = fe16();
  std::vector<std::thread> workers;
  DistributedConfig config;
  config.n_groups = 1;
  config.group_size = 2;
  config.transport = Transport::kTcp;
  config.heartbeat_timeout = 300ms;
  config.tcp.spawn_workers = false;
  config.tcp.on_listening = [&](const std::string& address) {
    for (int k = 0; k < 2; ++k)
      workers.emplace_back([&f, address] {
        (void)run_tcp_worker(address, [&](WorkerChannel& channel) {
          if (channel.rank() == 1) {
            if (!channel.recv()) return;
            std::this_thread::sleep_for(1s);
            // Killed by now: the connection is closed, so this sees EOF.
          }
          run_shard_worker(channel, f.solver);
        });
      });
  };
  obs::Counter& misses =
      obs::Registry::instance().counter("comm.heartbeat_misses");
  const std::uint64_t misses_before = misses.value();
  {
    DistributedEnergyService distributed(f.solver, config);
    Rng rng(46);
    const auto moments = spin::MomentConfiguration::random(16, rng);
    distributed.submit({0, 1, moments});
    const wl::EnergyResult result = distributed.retrieve();
    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.energy, f.energy->total_energy(moments));
    EXPECT_GE(misses.value() - misses_before, 1u);
    EXPECT_GE(distributed.reroutes(), 1u);
    EXPECT_FALSE(distributed.communicator().alive(1));
  }  // shutdown: the honest worker sees EOF and returns
  for (std::thread& worker : workers) worker.join();
}

}  // namespace
}  // namespace wlsms::comm
