// End-to-end daemon tests over real TCP loopback sockets: hostile byte
// streams against a live daemon, admission-control backpressure on the
// wire, a client killed during a batched solve, a tenant that stops
// reading its results, a client handed a result it never asked for, and a
// multi-client connect/disconnect soak — the daemon must never crash, leak
// sessions (the serve.sessions gauge returns to zero; a session lives
// exactly as long as its connection), or stall the surviving tenants.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <omp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "comm/framing.hpp"
#include "comm/socket.hpp"
#include "common/rng.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"

namespace wlsms::serve {
namespace {

std::shared_ptr<const lsms::LsmsSolver> small_solver() {
  static const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(2), lsms::fe_lsms_parameters_fast());
  return solver;
}

/// Daemon on an ephemeral loopback port with its poll loop on a thread.
class DaemonFixture {
 public:
  explicit DaemonFixture(ServeOptions options)
      : daemon_(small_solver(), std::move(options)),
        thread_([this] { daemon_.run(); }) {}

  ~DaemonFixture() {
    daemon_.stop();
    thread_.join();
  }

  Daemon& daemon() { return daemon_; }
  const std::string& address() const { return daemon_.address(); }

 private:
  Daemon daemon_;
  std::thread thread_;
};

wl::EnergyRequest make_request(std::uint64_t ticket, Rng& rng) {
  wl::EnergyRequest request;
  request.walker = static_cast<std::size_t>(ticket % 8);
  request.ticket = ticket;
  request.config =
      spin::MomentConfiguration::random(small_solver()->n_atoms(), rng);
  return request;
}

bool wait_for_sessions_gauge(double expected,
                             std::chrono::milliseconds timeout) {
  obs::Gauge& gauge = obs::Registry::instance().gauge("serve.sessions");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (gauge.value() == expected) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return gauge.value() == expected;
}

TEST(ServeTcp, GarbageStreamsAgainstLiveDaemonNeverCrashIt) {
  ServeOptions options;
  options.handshake_timeout = std::chrono::milliseconds(300);
  DaemonFixture fixture(options);
  Rng rng(901);

  // A mix of hostile connections: pure garbage, an oversize length field,
  // a valid frame header with a garbage hello, and a silent half-open
  // connection that must be expired by the handshake deadline.
  for (int round = 0; round < 10; ++round) {
    comm::Socket sock = comm::connect_with_timeout(
        fixture.address(), std::chrono::milliseconds(2000));
    std::vector<char> garbage(16 + rng.uniform_index(256));
    for (char& c : garbage)
      c = static_cast<char>(rng.uniform_index(256));
    if (round % 3 == 0) {
      // Frame-shaped prefix with a hostile length.
      const std::uint32_t huge = 0x7FFFFFFFu;
      std::memcpy(garbage.data(), &huge, sizeof(huge));
    }
    (void)!::write(sock.get(), garbage.data(), garbage.size());
    // Half of them hang up immediately, half linger for the reaper.
    if (round % 2 == 0) sock.close();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // The daemon is still alive and serving correct energies.
  ServeClient client(fixture.address());
  const wl::EnergyRequest request = make_request(1, rng);
  client.submit(request);
  const wl::EnergyResult result = client.retrieve();
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.energy, small_solver()->energy(request.config));
}

TEST(ServeTcp, QueueFullBackpressureRejectsOnTheWire) {
  ServeOptions options;
  options.limits.max_pending = 2;
  options.limits.max_session_outstanding = 16;
  options.limits.max_batch = 16;
  options.limits.batch_window = std::chrono::milliseconds(300);
  DaemonFixture fixture(options);
  Rng rng(902);

  ServeClient client(fixture.address());
  std::vector<wl::EnergyRequest> requests;
  for (std::uint64_t t = 1; t <= 5; ++t) {
    requests.push_back(make_request(t, rng));
    client.submit(requests.back());
  }
  std::size_t rejected = 0, succeeded = 0;
  while (client.outstanding() > 0) {
    const wl::EnergyResult result = client.retrieve();
    if (result.failed) {
      ++rejected;
    } else {
      ++succeeded;
      EXPECT_EQ(result.energy,
                small_solver()->energy(requests[result.ticket - 1].config));
    }
  }
  EXPECT_EQ(succeeded, 2u);
  EXPECT_EQ(rejected, 3u);
}

TEST(ServeTcp, KillingAClientMidBatchDoesNotStallTheOtherTenant) {
  ServeOptions options;
  options.limits.max_batch = 8;
  options.limits.batch_window = std::chrono::milliseconds(100);
  DaemonFixture fixture(options);
  Rng rng(904);

  ClientOptions alice_options;
  alice_options.tenant = "alice";
  ServeClient alice(fixture.address(), alice_options);
  ClientOptions bob_options;
  bob_options.tenant = "bob";
  ServeClient bob(fixture.address(), bob_options);

  std::vector<wl::EnergyRequest> bob_requests;
  for (std::uint64_t t = 1; t <= 4; ++t) {
    alice.submit(make_request(100 + t, rng));
    bob_requests.push_back(make_request(t, rng));
    bob.submit(bob_requests.back());
  }
  alice.abort_socket();  // alice dies while her requests are co-batched

  std::size_t received = 0;
  while (bob.outstanding() > 0) {
    const wl::EnergyResult result = bob.retrieve();
    ASSERT_FALSE(result.failed);
    EXPECT_EQ(
        result.energy,
        small_solver()->energy(bob_requests[result.ticket - 1].config));
    ++received;
  }
  EXPECT_EQ(received, 4u);
}

TEST(ServeTcp, BatchThreadsAreRestoredWhenRunReturns) {
  // gemm_batch_threads sets the OpenMP team size of the thread running the
  // daemon only while run() serves; the caller gets its own value back.
  ServeOptions options;
  options.gemm_batch_threads = 2;
  options.limits.max_batch = 4;
  options.limits.batch_window = std::chrono::milliseconds(50);
  Daemon daemon(small_solver(), options);
  int before = 0;
  int after = 0;
  std::thread server([&] {
    omp_set_num_threads(3);
    before = omp_get_max_threads();
    daemon.run();
    after = omp_get_max_threads();
  });

  {
    Rng rng(907);
    ServeClient client(daemon.address());
    std::vector<wl::EnergyRequest> requests;
    for (std::uint64_t t = 1; t <= 4; ++t) {
      requests.push_back(make_request(t, rng));
      client.submit(requests.back());
    }
    while (client.outstanding() > 0) {
      const wl::EnergyResult result = client.retrieve();
      ASSERT_FALSE(result.failed);
      EXPECT_EQ(result.energy,
                small_solver()->energy(requests[result.ticket - 1].config));
    }
  }
  daemon.stop();
  server.join();
  EXPECT_EQ(before, 3);
  EXPECT_EQ(after, before);
}

TEST(ServeTcp, StalledReaderIsDroppedWhileTheOtherTenantStaysExact) {
  // A tenant that submits far more work than its socket buffers can hold
  // results for, and never reads a byte. Once they are full, the daemon's
  // next result write to it trips send_deadline, and the daemon drops the
  // connection and its session at once: pending requests discarded, its
  // other results dropped. A second tenant's energies stay exact.
  ServeOptions options;
  options.send_deadline = std::chrono::milliseconds(200);
  options.client_sndbuf = 8192;  // keeps the stalled reader's buffering small
  // Room for all of the stalled tenant's work, so the steady tenant is
  // never refused for a full queue.
  options.limits.max_pending = 8192;
  options.limits.max_session_outstanding = 4096;
  DaemonFixture fixture(options);
  Rng rng(906);

  // The receive buffer shrinks before connect, so the window the stalled
  // tenant advertises stays small from the first byte: about 300 results
  // fill its buffers, against about 800 when it shrinks after connect.
  comm::Socket stalled(::socket(AF_INET, SOCK_STREAM, 0));
  const int rcvbuf = 4096;
  (void)::setsockopt(stalled.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                     sizeof(rcvbuf));
  const comm::HostPort where = comm::split_address(fixture.address());
  sockaddr_in peer{};
  peer.sin_family = AF_INET;
  peer.sin_port = htons(static_cast<std::uint16_t>(std::stoi(where.port)));
  ASSERT_EQ(::inet_pton(AF_INET, where.host.c_str(), &peer.sin_addr), 1);
  ASSERT_EQ(::connect(stalled.get(), reinterpret_cast<const sockaddr*>(&peer),
                      sizeof(peer)),
            0);
  ServeHello hello;
  hello.tenant = "stalled";
  const std::vector<std::byte> hello_frame =
      comm::frame_bytes({kTagServeHello, encode_serve_hello(hello)});
  ASSERT_TRUE(comm::write_all(
      stalled.get(), hello_frame.data(), hello_frame.size(),
      comm::StreamClock::now() + std::chrono::seconds(2)));
  ASSERT_TRUE(wait_for_sessions_gauge(1.0, std::chrono::seconds(5)));

  ClientOptions steady_options;
  steady_options.tenant = "steady";
  ServeClient steady(fixture.address(), steady_options);
  ASSERT_TRUE(wait_for_sessions_gauge(2.0, std::chrono::seconds(5)));

  // 4096 results are far more than the stalled tenant's buffers hold. The
  // writer stops once the daemon has dropped the connection; it is joined
  // on every exit from the test.
  std::jthread submitter([&stalled] {
    Rng submit_rng(907);
    wl::EnergyRequest request = make_request(1, submit_rng);
    for (std::uint64_t t = 1; t <= 4096; ++t) {
      request.ticket = t;
      const std::vector<std::byte> frame =
          comm::frame_bytes({kTagServeSubmit, encode_serve_submit(request)});
      if (!comm::write_all(stalled.get(), frame.data(), frame.size(),
                           comm::StreamClock::now() + std::chrono::seconds(10)))
        return;
    }
  });

  for (int round = 0; round < 3; ++round) {
    std::vector<wl::EnergyRequest> requests;
    for (std::uint64_t t = 1; t <= 4; ++t) {
      requests.push_back(make_request(t, rng));
      steady.submit(requests.back());
    }
    while (steady.outstanding() > 0) {
      const wl::EnergyResult result = steady.retrieve();
      ASSERT_FALSE(result.failed);
      EXPECT_EQ(result.energy,
                small_solver()->energy(requests[result.ticket - 1].config));
    }
  }
  // The stalled tenant is dropped although its socket is still open on this
  // side, and the steady tenant's session lives on. That takes about 0.3 s
  // on an idle host; the bound leaves room for sanitizer builds under load.
  EXPECT_TRUE(wait_for_sessions_gauge(1.0, std::chrono::seconds(120)));
  const wl::EnergyRequest last = make_request(5, rng);
  steady.submit(last);
  EXPECT_EQ(steady.retrieve().energy, small_solver()->energy(last.config));
}

/// A fake daemon on a loopback listener: welcomes one client, reads one
/// submit, and answers it with a result (or a reject) for a ticket 1000
/// past the submitted one.
void misrouting_daemon(comm::Socket listener, bool reject) try {
  const comm::Socket conn(::accept(listener.get(), nullptr, nullptr));
  const auto deadline = comm::StreamClock::now() + std::chrono::seconds(5);
  if (comm::read_frame(conn.get(), deadline).tag != kTagServeHello) return;
  ServeWelcome welcome;
  welcome.session = 1;
  welcome.n_atoms = small_solver()->n_atoms();
  std::vector<std::byte> frame =
      comm::frame_bytes({kTagServeWelcome, encode_serve_welcome(welcome)});
  if (!comm::write_all(conn.get(), frame.data(), frame.size(), deadline))
    return;
  const comm::Message submit = comm::read_frame(conn.get(), deadline);
  const std::uint64_t ticket = decode_serve_submit(submit.payload).ticket;
  const std::uint64_t stray = ticket + 1000;
  const comm::Message reply =
      reject ? comm::Message{kTagServeReject,
                             encode_serve_reject(
                                 {stray, ServeReject::Reason::kQueueFull})}
             : comm::Message{kTagServeResult,
                             encode_serve_result({0, stray, -1.0, false})};
  frame = comm::frame_bytes(reply);
  (void)comm::write_all(conn.get(), frame.data(), frame.size(), deadline);
  // Hold the connection until the client hangs up.
  char byte;
  while (::read(conn.get(), &byte, 1) > 0) {
  }
} catch (const std::exception&) {
  // A client that hangs up early fails the test on its own side.
}

TEST(ServeTcp, ReplyForATicketNotInFlightIsAProtocolError) {
  for (const bool reject : {false, true}) {
    std::string address;
    comm::Socket listener = comm::make_listener("127.0.0.1:0", 1, address);
    std::thread daemon(misrouting_daemon, std::move(listener), reject);
    {
      Rng rng(908);
      ServeClient client(address);
      client.submit(make_request(1, rng));
      EXPECT_THROW((void)client.retrieve(), comm::CommError)
          << (reject ? "reject" : "result");
      // The stream is no longer trusted: the client closed its socket.
      EXPECT_THROW((void)client.retrieve(), comm::CommError);
    }
    daemon.join();
  }
}

TEST(ServeTcp, TenantMetricSeriesAreCappedAtMaxTenantSeries) {
  ServeOptions options;
  options.max_tenant_series = 2;
  DaemonFixture fixture(options);
  Rng rng(907);

  for (const char* tenant : {"cap-a", "cap-b", "cap-c", "cap-d"}) {
    ClientOptions client_options;
    client_options.tenant = tenant;
    ServeClient client(fixture.address(), client_options);
    const wl::EnergyRequest request = make_request(1, rng);
    client.submit(request);
    EXPECT_EQ(client.retrieve().energy,
              small_solver()->energy(request.config));
  }

  // The daemon increments .results after the socket write, so the last
  // retrieve can race the counter; wait for it to settle.
  obs::Counter& other_results =
      obs::Registry::instance().counter("serve.tenant.other.results");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (other_results.value() < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // Tenant names arrive unauthenticated, so only the first
  // max_tenant_series distinct names get their own metric series; the rest
  // fold into "other" and cannot grow the registry without bound.
  const obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
  EXPECT_EQ(snapshot.counters.at("serve.tenant.cap-a.sessions"), 1u);
  EXPECT_EQ(snapshot.counters.at("serve.tenant.cap-b.sessions"), 1u);
  EXPECT_EQ(snapshot.counters.count("serve.tenant.cap-c.sessions"), 0u);
  EXPECT_EQ(snapshot.counters.count("serve.tenant.cap-d.sessions"), 0u);
  EXPECT_EQ(snapshot.counters.at("serve.tenant.other.sessions"), 2u);
  EXPECT_EQ(snapshot.counters.at("serve.tenant.other.results"), 2u);
}

TEST(ServeTcp, MultiClientChaosSoakLeaksNothingAndStallsNoOne) {
  ServeOptions options;
  options.limits.max_batch = 8;
  options.limits.max_pending = 128;
  options.limits.batch_window = std::chrono::milliseconds(5);
  DaemonFixture fixture(options);

  std::atomic<bool> chaos_failed{false};
  std::vector<std::thread> chaos;
  for (int c = 0; c < 3; ++c) {
    chaos.emplace_back([&fixture, &chaos_failed, c] {
      try {
        Rng rng(910 + static_cast<std::uint64_t>(c));
        for (int iteration = 0; iteration < 3; ++iteration) {
          ClientOptions client_options;
          client_options.tenant = "chaos" + std::to_string(c);
          ServeClient client(fixture.address(), client_options);
          const std::size_t n_submit = 1 + rng.uniform_index(3);
          for (std::size_t t = 0; t < n_submit; ++t)
            client.submit(make_request(t + 1, rng));
          if (rng.uniform_index(2) == 0) {
            client.abort_socket();  // vanish mid-flight
          } else {
            while (client.outstanding() > 0) (void)client.retrieve();
          }
        }
      } catch (const std::exception&) {
        chaos_failed = true;
      }
    });
  }

  // The stable tenant keeps computing correct energies throughout.
  Rng rng(909);
  ClientOptions stable_options;
  stable_options.tenant = "stable";
  {
    ServeClient stable(fixture.address(), stable_options);
    for (int round = 0; round < 3; ++round) {
      std::vector<wl::EnergyRequest> requests;
      for (std::uint64_t t = 1; t <= 4; ++t) {
        requests.push_back(make_request(t, rng));
        stable.submit(requests.back());
      }
      while (stable.outstanding() > 0) {
        const wl::EnergyResult result = stable.retrieve();
        ASSERT_FALSE(result.failed);
        EXPECT_EQ(
            result.energy,
            small_solver()->energy(requests[result.ticket - 1].config));
      }
    }
  }
  for (std::thread& t : chaos) t.join();
  EXPECT_FALSE(chaos_failed.load());

  // Every connection is gone; the daemon must not leak a single session.
  EXPECT_TRUE(wait_for_sessions_gauge(0.0, std::chrono::seconds(5)));
}

}  // namespace
}  // namespace wlsms::serve
