#pragma once

/// \file distributed_service.hpp
/// The paper's two-level decomposition made real: an EnergyService whose
/// evaluations are sharded across the worker ranks of M LSMS groups of N
/// ranks each ("one atom per processor", §II-C / Fig. 3), over either
/// communicator transport — threads for the sanitizer suites, TCP workers
/// (fork()ed on loopback or started on other nodes) for genuine
/// multi-process evaluation.
///
/// One submitted configuration occupies one group. Evaluation is
/// move-local (the paper's LSMS locality, §II-B): the controller keeps each
/// (session, walker)'s last two completed evaluations, diffs a request
/// bytewise against both, and takes the closer one as its basis. Only the
/// zones whose LIZ contains a changed site — the union of
/// LsmsSolver::affected_sites — are re-solved; a walker with no basis gets
/// every zone. Those zones are split evenly over the group's alive ranks as
/// explicit zone lists, each sent with the whole configuration; the ranks
/// run the LIZ solves serially, and the controller fills every other zone
/// from the basis and sums in atom order, making the distributed total
/// bit-identical to LsmsSolver::energies: an unaffected zone's inputs are
/// bitwise those of the basis evaluation. A request equal to its basis
/// completes without a scatter.
///
/// Resilience (paper §V): rank death — socket EOF, a killed thread, or a
/// heartbeat older than `heartbeat_timeout` while work is assigned — is
/// detected inside retrieve(), the victim's group re-scatters the affected
/// request over its surviving ranks (or the request migrates to another
/// group), and outstanding() never miscounts. Stale gathers from the
/// aborted scatter are discarded by attempt number; a rank whose gather is
/// anything but its current zone list is killed and rerouted the same way.
/// Only when every rank of every group is gone does retrieve() throw. Every
/// death, an idle rank's included, counts in comm.rank_deaths and
/// comm.dead_ranks.

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "lsms/solver.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::comm {

/// Group topology and failure-detection knobs.
struct DistributedConfig {
  std::size_t n_groups = 1;    ///< M independent LSMS groups
  std::size_t group_size = 1;  ///< N worker ranks per group
  Transport transport = Transport::kInProcess;
  /// A rank with assigned work unheard-from for longer than this is
  /// declared dead and its work rerouted. Must comfortably exceed the
  /// worst-case single-shard solve time (workers cannot heartbeat while
  /// computing).
  std::chrono::milliseconds heartbeat_timeout{5000};
  /// Listener, handshake, send-deadline and teardown knobs, used only when
  /// `transport` is kTcp. With `tcp.spawn_workers` false the workers are
  /// external processes started by the operator (`wlsms worker --connect`),
  /// running run_shard_worker over their own solver build.
  TcpOptions tcp;
};

/// The worker-rank protocol loop of DistributedEnergyService: runs the
/// serial zone-list solve of each request's configuration on `solver` and
/// replies with the gather. The worker keeps no state between requests.
/// Returns when the channel reports shutdown/EOF; throws on a malformed
/// request (a throwing worker is a dying worker — the controller reroutes).
/// Exposed so external TCP workers (`wlsms worker`) run the identical loop
/// the controller forks locally.
void run_shard_worker(WorkerChannel& channel,
                      std::shared_ptr<const lsms::LsmsSolver> solver);

/// Group-sharded, transport-agnostic, fault-tolerant energy service.
class DistributedEnergyService final : public wl::EnergyService {
 public:
  /// Workers run per-atom zone solves of `solver`. With spawned TCP
  /// workers the solver must be fully constructed before this call (the
  /// children inherit it copy-on-write); workers call `solve_zones` in
  /// serial mode, off every OpenMP path — see communicator.hpp fork
  /// discipline.
  DistributedEnergyService(std::shared_ptr<const lsms::LsmsSolver> solver,
                           DistributedConfig config);
  ~DistributedEnergyService() override;

  void submit(wl::EnergyRequest request) override;
  wl::EnergyResult retrieve() override;
  std::size_t outstanding() const override { return outstanding_; }

  /// Requests re-scattered after a detected worker death.
  std::uint64_t reroutes() const { return reroutes_; }
  std::size_t n_workers() const { return comm_->n_ranks(); }
  std::size_t n_alive_workers() const { return comm_->n_alive(); }

  /// The underlying transport — exposed so resilience tests and harnesses
  /// can kill ranks out from under the service.
  Communicator& communicator() { return *comm_; }

 private:
  /// One rank's slice of the current scatter.
  struct Assignment {
    std::size_t rank = 0;
    std::vector<std::size_t> zones;  ///< ascending; the zones the rank solves
  };

  struct Group {
    std::vector<std::size_t> ranks;  ///< global rank ids of this group
    bool busy = false;
    wl::EnergyRequest request;          ///< in-flight request
    std::uint32_t attempt = 0;          ///< current scatter generation
    std::size_t basis = 0;              ///< basis slot diffed against, or none
    std::vector<Assignment> assigned;   ///< shards of the current scatter
    /// The basis's e_i, copied at dispatch (a later completion of the same
    /// walker may overwrite the slot), with gathered zones written over it.
    std::vector<double> per_atom;
    std::vector<std::uint8_t> pending;  ///< zone scattered, not yet gathered
    std::size_t missing = 0;            ///< zones not yet gathered
  };

  /// One completed evaluation of a walker: what a later request's
  /// move-local scatter diffs against and fills unaffected zones from.
  struct Basis {
    std::vector<Vec3> directions;  ///< empty: slot unused
    std::vector<double> per_atom;
  };

  /// Scatters the zones `request` must solve over group `g`'s alive ranks,
  /// or completes it on the spot when it equals its basis. Returns false
  /// (group untouched further) if the group has no alive ranks left.
  bool dispatch(std::size_t g, const wl::EnergyRequest& request);
  /// Queues the result of `request` with the total summed in atom order.
  void complete(const wl::EnergyRequest& request,
                const std::vector<double>& per_atom);
  /// Finds an idle group with alive ranks; npos if none.
  std::size_t idle_group() const;
  /// Dispatches waiting requests onto idle groups.
  void pump_waiting();
  /// Handles one gathered shard result message.
  void on_shard_result(std::size_t rank, const std::vector<std::byte>& payload);
  /// Death and heartbeat-timeout sweep over busy groups, which reroutes
  /// their work, then over every rank, which counts deaths of idle ranks.
  void check_health();
  /// Counts the death of `rank` once in comm.rank_deaths and refreshes the
  /// comm.dead_ranks gauge.
  void count_death(std::size_t rank);
  /// Reacts to the death of `rank`: counts it and, if its group had work
  /// assigned to it, re-scatters that work.
  void on_rank_death(std::size_t rank);

  std::shared_ptr<const lsms::LsmsSolver> solver_;
  DistributedConfig config_;
  std::unique_ptr<Communicator> comm_;
  std::vector<Group> groups_;
  std::vector<std::size_t> rank_group_;  ///< rank id -> group index

  /// Basis key: one tenant-session's walker. Sessions number their walkers
  /// from zero, so walker id alone would alias two tenants' configurations.
  using ConfigKey = std::pair<std::uint64_t, std::uint64_t>;

  /// Per-(session, walker) last two completed evaluations. A completion
  /// keeps the slot its request diffed against and overwrites the other,
  /// so the walker's current configuration stays cached through any
  /// accept/reject sequence (after a rejection the walker is back at the
  /// configuration before the last one).
  std::map<ConfigKey, std::array<Basis, 2>> bases_;

  /// Per-rank flag: this rank's death was already counted in the
  /// comm.rank_deaths metric (a death is seen by several sweeps).
  std::vector<std::uint8_t> death_counted_;

  std::deque<wl::EnergyRequest> waiting_;  ///< submitted, no free group yet
  std::deque<wl::EnergyResult> done_;      ///< completed, not yet retrieved
  std::size_t outstanding_ = 0;
  std::uint32_t next_attempt_ = 1;
  std::uint64_t reroutes_ = 0;
};

}  // namespace wlsms::comm
