// In-process Communicator and DistributedEnergyService tests: echo plumbing,
// heartbeat/liveness bookkeeping, kill -> reroute resilience, death
// accounting, move-local evaluation (bit-identity and exact zone counts
// through accept/reject walks, in-flight requests, resubmissions, reroutes
// and tenant sessions), the retrieve-with-nothing-outstanding contract
// across every EnergyService implementation the factory can build, and a
// messaging stress run. All thread-backed (Transport::kInProcess), so the
// sanitize label runs the whole file under tsan and asan-ubsan; the TCP
// twin lives in test_comm_tcp.cpp.
#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "comm/distributed_service.hpp"
#include "comm/factory.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "move_local_walk.hpp"
#include "obs/metrics.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::comm {
namespace {

using namespace std::chrono_literals;

Message text_message(std::uint32_t tag, const std::string& text) {
  Message message;
  message.tag = tag;
  message.payload.resize(text.size());
  std::memcpy(message.payload.data(), text.data(), text.size());
  return message;
}

std::string text_of(const Message& message) {
  return std::string(reinterpret_cast<const char*>(message.payload.data()),
                     message.payload.size());
}

// ---- raw communicator ----------------------------------------------------

TEST(InProcessCommunicator, EchoAllRanks) {
  constexpr std::size_t kRanks = 3;
  auto comm = make_in_process_communicator(kRanks, [](WorkerChannel& channel) {
    while (std::optional<Message> message = channel.recv())
      channel.send({message->tag + 1, message->payload});
  });
  EXPECT_EQ(comm->n_ranks(), kRanks);
  EXPECT_EQ(comm->n_alive(), kRanks);

  for (std::size_t r = 0; r < kRanks; ++r)
    EXPECT_TRUE(comm->send(r, text_message(10 * static_cast<std::uint32_t>(r),
                                           "ping" + std::to_string(r))));
  std::vector<bool> seen(kRanks, false);
  for (std::size_t k = 0; k < kRanks; ++k) {
    std::optional<Incoming> incoming;
    while (!incoming) incoming = comm->recv(200ms);
    EXPECT_FALSE(seen[incoming->rank]);
    seen[incoming->rank] = true;
    EXPECT_EQ(incoming->message.tag, 10 * incoming->rank + 1);
    EXPECT_EQ(text_of(incoming->message),
              "ping" + std::to_string(incoming->rank));
  }
  comm->shutdown();
  EXPECT_EQ(comm->n_alive(), 0u);
}

TEST(InProcessCommunicator, RecvTimesOutWhenQuiet) {
  auto comm = make_in_process_communicator(1, [](WorkerChannel& channel) {
    while (channel.recv()) {
    }
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(comm->recv(50ms).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 40ms);
}

TEST(InProcessCommunicator, KillFlipsLivenessAndDropsTraffic) {
  auto comm = make_in_process_communicator(2, [](WorkerChannel& channel) {
    while (std::optional<Message> message = channel.recv())
      channel.send(*message);
  });
  comm->kill(0);
  comm->kill(0);  // idempotent
  EXPECT_FALSE(comm->alive(0));
  EXPECT_TRUE(comm->alive(1));
  EXPECT_EQ(comm->n_alive(), 1u);
  EXPECT_FALSE(comm->send(0, text_message(1, "into the void")));
  EXPECT_TRUE(comm->send(1, text_message(2, "still here")));
  std::optional<Incoming> incoming;
  while (!incoming) incoming = comm->recv(200ms);
  EXPECT_EQ(incoming->rank, 1u);
  // Dead ranks report a huge silence, so any timeout cut catches them.
  EXPECT_GT(comm->millis_since_heard(0), 1u << 30);
}

TEST(InProcessCommunicator, WorkerExitIsRankDeath) {
  auto comm = make_in_process_communicator(1, [](WorkerChannel& channel) {
    (void)channel.recv();  // first message ends the worker
  });
  EXPECT_TRUE(comm->send(0, text_message(1, "bye")));
  for (int k = 0; k < 100 && comm->alive(0); ++k)
    std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(comm->alive(0));
}

TEST(InProcessCommunicator, ThrowingWorkerIsRankDeathNotTermination) {
  auto comm = make_in_process_communicator(1, [](WorkerChannel& channel) {
    (void)channel.recv();
    throw Error("worker blew up");
  });
  EXPECT_TRUE(comm->send(0, text_message(1, "boom")));
  for (int k = 0; k < 100 && comm->alive(0); ++k)
    std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(comm->alive(0));
}

TEST(InProcessCommunicator, WedgedWorkerGoesSilentButIdleWorkerHeartbeats) {
  // Rank 0 "computes" (sleeps without recv'ing) after its first message;
  // rank 1 idles in recv, heartbeating. After ~500ms rank 0's silence
  // exceeds any reasonable timeout while rank 1 stays fresh — exactly the
  // signal the distributed service's health check keys on.
  auto comm = make_in_process_communicator(2, [](WorkerChannel& channel) {
    bool first = true;
    while (std::optional<Message> message = channel.recv()) {
      if (channel.rank() == 0 && first) {
        first = false;
        std::this_thread::sleep_for(600ms);
      }
    }
  });
  EXPECT_TRUE(comm->send(0, text_message(1, "work")));
  std::this_thread::sleep_for(450ms);
  EXPECT_TRUE(comm->alive(0));
  EXPECT_GT(comm->millis_since_heard(0), 350u);
  EXPECT_LT(comm->millis_since_heard(1), 300u);
  comm->shutdown();
}

TEST(Transport, ParseAndName) {
  // Exactly the two names `wlsms distributed --help` lists round-trip; the
  // retired transport and aliases are unknown values like any other.
  for (const Transport transport : {Transport::kInProcess, Transport::kTcp})
    EXPECT_EQ(parse_transport(transport_name(transport)), transport);
  EXPECT_STREQ(transport_name(Transport::kInProcess), "inprocess");
  EXPECT_STREQ(transport_name(Transport::kTcp), "tcp");
  for (const char* name : {"process", "fork", "threads", "net",
                           "carrier-pigeon", ""})
    EXPECT_THROW(parse_transport(name), CommError) << name;
}

// ---- distributed energy service on the in-process transport --------------

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

TEST(DistributedService, BitIdenticalToSynchronousReference) {
  const Fe16& f = fe16();
  wl::SynchronousEnergyService reference(*f.energy);

  DistributedConfig config;
  config.n_groups = 2;
  config.group_size = 2;
  config.transport = Transport::kInProcess;
  DistributedEnergyService distributed(f.solver, config);

  Rng rng(21);
  constexpr std::size_t kEvals = 8;
  std::vector<spin::MomentConfiguration> configs;
  for (std::size_t k = 0; k < kEvals; ++k)
    configs.push_back(spin::MomentConfiguration::random(16, rng));

  // Walker ids repeat across requests, so later requests of a walker diff
  // against its cached evaluations (random configurations: every zone).
  for (std::size_t k = 0; k < kEvals; ++k) {
    reference.submit({k % 2, k + 1, configs[k]});
    distributed.submit({k % 2, k + 1, configs[k]});
  }
  std::vector<double> expected(kEvals), got(kEvals);
  for (std::size_t k = 0; k < kEvals; ++k) {
    const wl::EnergyResult r = reference.retrieve();
    expected[r.ticket - 1] = r.energy;
    const wl::EnergyResult d = distributed.retrieve();
    EXPECT_FALSE(d.failed);
    got[d.ticket - 1] = d.energy;
  }
  for (std::size_t k = 0; k < kEvals; ++k)
    EXPECT_EQ(got[k], expected[k]) << "eval " << k << " not bit-identical";
  EXPECT_EQ(distributed.outstanding(), 0u);
}

TEST(DistributedService, KilledWorkerIsReroutedAndRequestCompletes) {
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 1;
  config.group_size = 2;
  config.transport = Transport::kInProcess;
  DistributedEnergyService distributed(f.solver, config);

  Rng rng(23);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  distributed.submit({0, 1, moments});
  // Kill one of the two assigned ranks right after the scatter. The kill
  // races the worker's shard solve, but the outcome must not: even if the
  // worker's gather beat the kill into the controller's queue, the service
  // discards frames from dead ranks, so the health check inside retrieve()
  // always detects the death and re-scatters over the survivor.
  distributed.communicator().kill(0);
  const wl::EnergyResult result = distributed.retrieve();
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.energy, f.energy->total_energy(moments));
  EXPECT_EQ(distributed.n_alive_workers(), 1u);
  EXPECT_GE(distributed.reroutes(), 1u);

  // The service keeps working on the surviving rank.
  distributed.submit({0, 2, moments});
  EXPECT_EQ(distributed.retrieve().energy, f.energy->total_energy(moments));
}

TEST(DistributedService, GroupDeathMigratesRequestToAnotherGroup) {
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 2;
  config.group_size = 1;
  config.transport = Transport::kInProcess;
  DistributedEnergyService distributed(f.solver, config);

  Rng rng(24);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  distributed.submit({0, 1, moments});  // lands on group 0 (rank 0)
  distributed.communicator().kill(0);   // group 0 is now extinct
  const wl::EnergyResult result = distributed.retrieve();
  EXPECT_EQ(result.energy, f.energy->total_energy(moments));
  EXPECT_EQ(distributed.n_alive_workers(), 1u);
}

TEST(DistributedService, AllRanksDeadThrowsCommError) {
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 1;
  config.group_size = 2;
  config.transport = Transport::kInProcess;
  DistributedEnergyService distributed(f.solver, config);

  Rng rng(25);
  distributed.submit({0, 1, spin::MomentConfiguration::random(16, rng)});
  distributed.communicator().kill(0);
  distributed.communicator().kill(1);
  EXPECT_THROW(distributed.retrieve(), CommError);
}

TEST(DistributedService, IdleRankDeathIsCounted) {
  // A rank that dies holding no work has nothing to reroute, but its death
  // must still show in comm.rank_deaths and comm.dead_ranks, which is what
  // `wlsms status` reports.
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 2;
  config.group_size = 1;
  config.transport = Transport::kInProcess;
  DistributedEnergyService distributed(f.solver, config);
  obs::Counter& deaths = obs::Registry::instance().counter("comm.rank_deaths");
  const std::uint64_t deaths0 = deaths.value();

  distributed.communicator().kill(1);  // group 1, before any request
  Rng rng(30);
  for (std::uint64_t ticket = 1; ticket <= 6; ++ticket) {
    const auto moments = spin::MomentConfiguration::random(16, rng);
    distributed.submit({0, ticket, moments});
    EXPECT_EQ(distributed.retrieve().energy, f.energy->total_energy(moments));
  }
  EXPECT_EQ(deaths.value() - deaths0, 1u);
  EXPECT_EQ(obs::Registry::instance().gauge("comm.dead_ranks").value(), 1.0);
  EXPECT_EQ(distributed.reroutes(), 0u);
}

TEST(DistributedService, ManyRequestsSurviveAKillMidStream) {
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 2;
  config.group_size = 2;
  config.transport = Transport::kInProcess;
  DistributedEnergyService distributed(f.solver, config);

  Rng rng(26);
  constexpr std::size_t kEvals = 10;
  std::vector<spin::MomentConfiguration> configs;
  for (std::size_t k = 0; k < kEvals; ++k)
    configs.push_back(spin::MomentConfiguration::random(16, rng));
  for (std::size_t k = 0; k < kEvals; ++k)
    distributed.submit({k % 3, k + 1, configs[k]});

  std::vector<double> got(kEvals, 0.0);
  for (std::size_t k = 0; k < kEvals; ++k) {
    if (k == 2) distributed.communicator().kill(1);
    const wl::EnergyResult r = distributed.retrieve();
    got[r.ticket - 1] = r.energy;
  }
  for (std::size_t k = 0; k < kEvals; ++k)
    EXPECT_EQ(got[k], f.energy->total_energy(configs[k])) << "eval " << k;
}

// ---- move-local evaluation (54-atom cell: a move touches 15 of 54 zones) --

DistributedConfig in_process(std::size_t n_groups, std::size_t group_size) {
  DistributedConfig config;
  config.n_groups = n_groups;
  config.group_size = group_size;
  config.transport = Transport::kInProcess;
  return config;
}

/// Submits one request and retrieves its energy.
double evaluate(DistributedEnergyService& service, std::uint64_t ticket,
                const spin::MomentConfiguration& moments,
                std::uint64_t session = 0) {
  wl::EnergyRequest request;
  request.walker = 0;
  request.ticket = ticket;
  request.config = moments;
  request.session = session;
  service.submit(request);
  const wl::EnergyResult result = service.retrieve();
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.ticket, ticket);
  return result.energy;
}

TEST(MoveLocalService, AcceptRejectWalkIsBitIdenticalAndSolvesAffectedZones) {
  const auto& solver = fe54_solver();
  ASSERT_EQ(solver->affected_sites(0).size(), 15u);
  DistributedEnergyService distributed(solver, in_process(2, 2));
  expect_move_local_walk(distributed, *solver, 3, 12, 61);
}

TEST(MoveLocalService, TwoInFlightRequestsOfOneWalkerEachKeepTheirBasis) {
  // Cache the walker at X (slot 0) and Y = X + one move (slot 1). Then A,
  // one move from X, and B, one move from Y, go out together on the two
  // groups: A diffs against slot 0 and will overwrite slot 1, B the other
  // way round. Whichever completes first overwrites the other's basis
  // slot, so each must have copied its basis energies at dispatch.
  const auto& solver = fe54_solver();
  const std::size_t n = solver->n_atoms();
  DistributedEnergyService distributed(solver, in_process(2, 2));
  Rng rng(62);
  const auto x = spin::MomentConfiguration::random(n, rng);
  auto y = x;
  y.set(4, rng.unit_vector());
  EXPECT_EQ(evaluate(distributed, 1, x), solver->energies(x).total);
  EXPECT_EQ(evaluate(distributed, 2, y), solver->energies(y).total);

  auto a = x;
  a.set(17, rng.unit_vector());
  auto b = y;
  b.set(40, rng.unit_vector());
  const std::uint64_t before = zones_solved();
  distributed.submit({0, 3, a});
  distributed.submit({0, 4, b});
  for (int k = 0; k < 2; ++k) {
    const wl::EnergyResult result = distributed.retrieve();
    EXPECT_EQ(result.energy,
              solver->energies(result.ticket == 3 ? a : b).total)
        << "ticket " << result.ticket;
  }
  EXPECT_EQ(zones_solved() - before, solver->affected_sites(17).size() +
                                         solver->affected_sites(40).size());
}

TEST(MoveLocalService, IdenticalResubmissionSolvesNoZones) {
  const auto& solver = fe54_solver();
  DistributedEnergyService distributed(solver, in_process(1, 2));
  Rng rng(63);
  const auto x = spin::MomentConfiguration::random(solver->n_atoms(), rng);
  const double first = evaluate(distributed, 1, x);

  obs::Counter& frames = obs::Registry::instance().counter("comm.frames_sent");
  const std::uint64_t zones0 = zones_solved(), frames0 = frames.value();
  EXPECT_EQ(evaluate(distributed, 2, x), first);
  EXPECT_EQ(zones_solved(), zones0);
  EXPECT_EQ(frames.value(), frames0) << "an identical resubmission scattered";
}

TEST(MoveLocalService, KilledRankMidRequestReroutesToTheBitIdenticalEnergy) {
  const auto& solver = fe54_solver();
  DistributedEnergyService distributed(solver, in_process(1, 2));
  Rng rng(64);
  auto moments = spin::MomentConfiguration::random(solver->n_atoms(), rng);
  (void)evaluate(distributed, 1, moments);

  // The move's 15 zones are split over both ranks; one dies before its
  // gather is read, so the survivor re-solves all 15 against the same
  // basis.
  moments.set(9, rng.unit_vector());
  distributed.submit({0, 2, moments});
  distributed.communicator().kill(0);
  const wl::EnergyResult result = distributed.retrieve();
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.energy, solver->energies(moments).total);
  EXPECT_GE(distributed.reroutes(), 1u);
  EXPECT_EQ(distributed.n_alive_workers(), 1u);

  // The walk goes on, move-local, on the survivor.
  moments.set(30, rng.unit_vector());
  const std::uint64_t before = zones_solved();
  EXPECT_EQ(evaluate(distributed, 3, moments), solver->energies(moments).total);
  EXPECT_EQ(zones_solved() - before, solver->affected_sites(30).size());
}

TEST(MoveLocalService, SessionsWithEqualWalkerIdsDoNotShareABasis) {
  // The serving daemon multiplexes tenant sessions over one service, and
  // every session numbers its walkers from zero. Bases are keyed on
  // (session, walker): session 8's first request must solve every zone even
  // when it is one move away from session 7's walker 0.
  const auto& solver = fe54_solver();
  const std::size_t n = solver->n_atoms();
  DistributedEnergyService distributed(solver, in_process(1, 2));
  Rng rng(65);
  auto x = spin::MomentConfiguration::random(n, rng);
  EXPECT_EQ(evaluate(distributed, 1, x, /*session=*/7),
            solver->energies(x).total);

  x.set(11, rng.unit_vector());
  std::uint64_t before = zones_solved();
  EXPECT_EQ(evaluate(distributed, 2, x, 8), solver->energies(x).total);
  EXPECT_EQ(zones_solved() - before, n)
      << "session 8 diffed against session 7's walker 0";

  // Session 7's walker 0 keeps its own basis: the same move is local there.
  before = zones_solved();
  EXPECT_EQ(evaluate(distributed, 3, x, 7), solver->energies(x).total);
  EXPECT_EQ(zones_solved() - before, solver->affected_sites(11).size());
}

TEST(MoveLocalService, RandomConfigurationFallsBackToEveryZone) {
  const auto& solver = fe54_solver();
  const std::size_t n = solver->n_atoms();
  DistributedEnergyService distributed(solver, in_process(1, 2));
  Rng rng(66);
  (void)evaluate(distributed, 1, spin::MomentConfiguration::random(n, rng));
  const auto z = spin::MomentConfiguration::random(n, rng);
  const std::uint64_t before = zones_solved();
  EXPECT_EQ(evaluate(distributed, 2, z), solver->energies(z).total);
  EXPECT_EQ(zones_solved() - before, n);
}

// ---- retrieve() with nothing outstanding: every implementation -----------

TEST(RetrieveEmpty, EveryFactoryServiceThrowsWlsmsError) {
  const Fe16& f = fe16();
  const std::vector<ServiceKind> kinds = {
      ServiceKind::kSynchronous, ServiceKind::kReordering,
      ServiceKind::kAsyncThreads, ServiceKind::kDistributed};
  for (ServiceKind kind : kinds) {
    EnergyServiceSpec spec;
    spec.kind = kind;
    spec.energy = f.energy.get();
    spec.n_instances = 2;
    spec.distributed.n_groups = 1;
    spec.distributed.group_size = 2;
    spec.distributed.transport = Transport::kInProcess;
    const std::unique_ptr<wl::EnergyService> service =
        make_energy_service(spec);
    EXPECT_THROW(service->retrieve(), Error)
        << "kind " << static_cast<int>(kind);
    EXPECT_EQ(service->outstanding(), 0u);
  }
}

TEST(RetrieveEmpty, FailureWrappedServiceThrowsWlsmsError) {
  const Fe16& f = fe16();
  EnergyServiceSpec spec;
  spec.kind = ServiceKind::kSynchronous;
  spec.energy = f.energy.get();
  spec.failure_probability = 0.5;
  const std::unique_ptr<wl::EnergyService> service = make_energy_service(spec);
  EXPECT_THROW(service->retrieve(), Error);
}

// ---- factory validation --------------------------------------------------

TEST(Factory, RejectsMissingEnergyAndBadSpecs) {
  const Fe16& f = fe16();
  EnergyServiceSpec spec;
  EXPECT_THROW(make_energy_service(spec), Error);  // no energy

  wl::HeisenbergEnergy heisenberg(heisenberg::HeisenbergModel(
      lattice::make_fe_supercell(2), {1e-3}));
  spec.energy = &heisenberg;
  spec.kind = ServiceKind::kDistributed;
  EXPECT_THROW(make_energy_service(spec), Error);  // not an LSMS backend

  spec.kind = ServiceKind::kSynchronous;
  spec.failure_probability = 1.5;
  EXPECT_THROW(make_energy_service(spec), Error);

  spec.failure_probability = 0.0;
  spec.kind = ServiceKind::kAsyncThreads;
  spec.n_instances = 0;
  EXPECT_THROW(make_energy_service(spec), Error);

  // And a well-formed spec of every kind builds and works end to end.
  EnergyServiceSpec good;
  good.energy = f.energy.get();
  good.kind = ServiceKind::kDistributed;
  good.distributed.transport = Transport::kInProcess;
  const std::unique_ptr<wl::EnergyService> service = make_energy_service(good);
  Rng rng(27);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  service->submit({0, 1, moments});
  EXPECT_EQ(service->retrieve().energy, f.energy->total_energy(moments));
}

// ---- stress --------------------------------------------------------------

TEST(InProcessCommunicator, MessageStress) {
  constexpr std::size_t kRanks = 4;
  constexpr std::size_t kMessages = 400;
  std::atomic<std::size_t> worker_received{0};
  auto comm = make_in_process_communicator(
      kRanks, [&worker_received](WorkerChannel& channel) {
        while (std::optional<Message> message = channel.recv()) {
          worker_received.fetch_add(1);
          channel.send({message->tag, message->payload});
        }
      });
  for (std::size_t k = 0; k < kMessages; ++k)
    EXPECT_TRUE(comm->send(k % kRanks,
                           text_message(static_cast<std::uint32_t>(k), "m")));
  std::size_t received = 0;
  std::vector<bool> seen(kMessages, false);
  while (received < kMessages) {
    std::optional<Incoming> incoming = comm->recv(500ms);
    ASSERT_TRUE(incoming.has_value()) << "after " << received << " messages";
    ASSERT_LT(incoming->message.tag, kMessages);
    EXPECT_FALSE(seen[incoming->message.tag]);
    seen[incoming->message.tag] = true;
    ++received;
  }
  comm->shutdown();
  EXPECT_EQ(worker_received.load(), kMessages);
}

}  // namespace
}  // namespace wlsms::comm
