// End-to-end daemon tests over real TCP loopback sockets: hostile byte
// streams against a live daemon, admission-control backpressure on the
// wire, checkpointed session resume, a client killed during a batched
// solve, and a multi-client connect/disconnect soak — the daemon must never
// crash, leak sessions (the serve.sessions gauge returns to zero), or stall
// the surviving tenants.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include <dirent.h>
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

/// Unlinks everything inside `dir` and removes it (daemons write session
/// checkpoints on every clean disconnect, so tests sweep rather than
/// enumerate).
void remove_checkpoint_dir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      (void)std::remove((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  (void)::rmdir(dir.c_str());
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

TEST(ServeTcp, SessionCheckpointResumeRecoversPendingWork) {
  char dir_template[] = "/tmp/wlsms-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string checkpoint_dir = dir_template;

  ServeOptions options;
  options.checkpoint_dir = checkpoint_dir;
  options.limits.batch_window = std::chrono::milliseconds(500);
  options.limits.max_batch = 16;
  DaemonFixture fixture(options);
  Rng rng(903);

  std::vector<wl::EnergyRequest> requests;
  std::uint64_t session = 0, token = 0;
  {
    ClientOptions client_options;
    client_options.tenant = "resumer";
    ServeClient client(fixture.address(), client_options);
    session = client.session();
    token = client.resume_token();
    for (std::uint64_t t = 1; t <= 3; ++t) {
      requests.push_back(make_request(t, rng));
      client.submit(requests.back());
    }
    client.abort_socket();  // die with 3 requests in flight
  }
  ASSERT_TRUE(wait_for_sessions_gauge(0.0, std::chrono::seconds(5)));
  const std::string checkpoint_file =
      checkpoint_dir + "/session-" + std::to_string(session) + ".wlsm";
  ASSERT_EQ(::access(checkpoint_file.c_str(), F_OK), 0);

  // The wrong token must not resurrect the session.
  {
    ClientOptions stolen;
    stolen.tenant = "resumer";
    stolen.resume_session = session;
    stolen.resume_token = token ^ 1;
    EXPECT_THROW(ServeClient(fixture.address(), stolen), comm::CommError);
  }

  ClientOptions resume_options;
  resume_options.tenant = "resumer";
  resume_options.resume_session = session;
  resume_options.resume_token = token;
  ServeClient resumed(fixture.address(), resume_options);
  EXPECT_TRUE(resumed.resumed());
  EXPECT_EQ(resumed.session(), session);
  ASSERT_EQ(resumed.outstanding(), 3u);
  std::size_t received = 0;
  while (resumed.outstanding() > 0) {
    const wl::EnergyResult result = resumed.retrieve();
    ASSERT_FALSE(result.failed);
    EXPECT_EQ(result.energy,
              small_solver()->energy(requests[result.ticket - 1].config));
    ++received;
  }
  EXPECT_EQ(received, 3u);
  // A consumed checkpoint is deleted — it cannot be replayed twice.
  EXPECT_NE(::access(checkpoint_file.c_str(), F_OK), 0);

  std::remove(checkpoint_file.c_str());
  ::rmdir(checkpoint_dir.c_str());
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

TEST(ServeTcp, RestartedDaemonNeverReissuesACheckpointedSessionId) {
  char dir_template[] = "/tmp/wlsms-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string checkpoint_dir = dir_template;
  Rng rng(905);

  ServeOptions options;
  options.checkpoint_dir = checkpoint_dir;
  options.limits.batch_window = std::chrono::milliseconds(500);

  std::vector<wl::EnergyRequest> requests;
  std::uint64_t session = 0, token = 0;
  {
    DaemonFixture first(options);
    ClientOptions alice_options;
    alice_options.tenant = "alice";
    ServeClient alice(first.address(), alice_options);
    session = alice.session();
    token = alice.resume_token();
    for (std::uint64_t t = 1; t <= 2; ++t) {
      requests.push_back(make_request(t, rng));
      alice.submit(requests.back());
    }
    alice.abort_socket();  // die with in-flight work checkpointed
    ASSERT_TRUE(wait_for_sessions_gauge(0.0, std::chrono::seconds(5)));
  }  // daemon restarts; checkpoint files survive in checkpoint_dir

  {
    DaemonFixture second(options);
    // A fresh tenant on the restarted daemon must get a brand-new session
    // id. Without seeding next_session_ past the surviving checkpoints it
    // got alice's id, which first blocked her resume and then overwrote
    // her checkpoint (destroying her in-flight work) on disconnect.
    ClientOptions bob_options;
    bob_options.tenant = "bob";
    {
      ServeClient bob(second.address(), bob_options);
      EXPECT_GT(bob.session(), session);
      const wl::EnergyRequest request = make_request(7, rng);
      bob.submit(request);
      EXPECT_EQ(bob.retrieve().energy,
                small_solver()->energy(request.config));
    }

    ClientOptions resume_options;
    resume_options.tenant = "alice";
    resume_options.resume_session = session;
    resume_options.resume_token = token;
    ServeClient resumed(second.address(), resume_options);
    EXPECT_TRUE(resumed.resumed());
    EXPECT_EQ(resumed.session(), session);
    ASSERT_EQ(resumed.outstanding(), 2u);
    while (resumed.outstanding() > 0) {
      const wl::EnergyResult result = resumed.retrieve();
      ASSERT_FALSE(result.failed);
      EXPECT_EQ(result.energy,
                small_solver()->energy(requests[result.ticket - 1].config));
    }
  }
  remove_checkpoint_dir(checkpoint_dir);
}

TEST(ServeTcp, ClientDeathMidResumeReplayKeepsCheckpointRecoverable) {
  char dir_template[] = "/tmp/wlsms-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string checkpoint_dir = dir_template;
  Rng rng(906);

  // A checkpoint with far more undelivered results than the kernel socket
  // buffers can absorb, plus two pending requests.
  constexpr std::uint64_t kSession = 777;
  constexpr std::uint64_t kToken = 0x5EEDF00Dull;
  constexpr std::size_t kUndelivered = 20000;
  constexpr std::uint64_t kPendingBase = 999001;
  SessionCheckpoint checkpoint;
  checkpoint.session = kSession;
  checkpoint.resume_token = kToken;
  checkpoint.tenant = "replay";
  for (std::size_t k = 0; k < kUndelivered; ++k) {
    wl::EnergyResult result;
    result.ticket = k + 1;
    result.energy = static_cast<double>(k + 1);
    checkpoint.undelivered.push_back(result);
  }
  std::vector<wl::EnergyRequest> pending;
  for (std::uint64_t t = 0; t < 2; ++t) {
    pending.push_back(make_request(kPendingBase + t, rng));
    checkpoint.pending.push_back(pending.back());
  }
  {
    const std::vector<std::byte> bytes = encode_session_checkpoint(checkpoint);
    std::ofstream out(checkpoint_dir + "/session-777.wlsm", std::ios::binary);
    ASSERT_TRUE(out.good());
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  ServeOptions options;
  options.checkpoint_dir = checkpoint_dir;
  options.send_deadline = std::chrono::milliseconds(200);
  options.client_sndbuf = 8192;  // keeps the stalled replay's buffering small
  options.limits.max_pending = 512;
  options.limits.max_batch = 2;  // both pending solve as soon as both queue
  options.limits.batch_window = std::chrono::seconds(10);
  DaemonFixture fixture(options);

  // Victim: resumes the session but never reads a byte, so the replay
  // stalls against full socket buffers and trips the daemon's send deadline
  // mid-replay. The daemon must re-checkpoint the unsent remainder and the
  // pending requests — not clobber the file with a near-empty session.
  {
    comm::Socket victim = comm::connect_with_timeout(
        fixture.address(), std::chrono::milliseconds(2000));
    const int rcvbuf = 4096;
    (void)::setsockopt(victim.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf));
    ServeHello hello;
    hello.tenant = "replay";
    hello.resume_session = kSession;
    hello.resume_token = kToken;
    const std::vector<std::byte> frame =
        comm::frame_bytes({kTagServeHello, encode_serve_hello(hello)});
    ASSERT_TRUE(comm::write_all(
        victim.get(), frame.data(), frame.size(),
        comm::StreamClock::now() + std::chrono::seconds(2)));
    ASSERT_TRUE(wait_for_sessions_gauge(1.0, std::chrono::seconds(5)));
    ASSERT_TRUE(wait_for_sessions_gauge(0.0, std::chrono::seconds(10)));
  }

  ClientOptions resume_options;
  resume_options.tenant = "replay";
  resume_options.resume_session = kSession;
  resume_options.resume_token = kToken;
  ServeClient resumed(fixture.address(), resume_options);
  EXPECT_TRUE(resumed.resumed());
  // The unsent tail of the replay and both pending requests survived (the
  // victim absorbed at most a bounded prefix into its kernel buffers).
  ASSERT_GE(resumed.outstanding(), 3u);
  std::size_t replayed = 0, solved = 0;
  while (resumed.outstanding() > 0) {
    const wl::EnergyResult result = resumed.retrieve();
    ASSERT_FALSE(result.failed);
    if (result.ticket >= kPendingBase) {
      EXPECT_EQ(result.energy,
                small_solver()->energy(
                    pending[result.ticket - kPendingBase].config));
      ++solved;
    } else {
      EXPECT_EQ(result.energy, static_cast<double>(result.ticket));
      ++replayed;
    }
  }
  EXPECT_EQ(solved, 2u);
  EXPECT_GT(replayed, 0u);
  remove_checkpoint_dir(checkpoint_dir);
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
