#pragma once

/// \file distributed_service.hpp
/// The paper's two-level decomposition made real: an EnergyService whose
/// evaluations are sharded across the worker ranks of M LSMS groups of N
/// ranks each ("one atom per processor", §II-C / Fig. 3), over either
/// communicator transport — threads for the sanitizer suites, fork()ed
/// processes for genuine multi-process evaluation.
///
/// One submitted configuration occupies one group. Evaluation is
/// move-local (the paper's LSMS locality, §II-B): the controller keeps each
/// (session, walker)'s last two completed evaluations, diffs a request
/// bytewise against both, and takes the closer one as its basis. Only the
/// zones whose LIZ contains a changed site — the union of
/// LsmsSolver::affected_sites — are re-solved; a walker with no basis gets
/// every zone. Those zones are split evenly over the group's alive ranks as
/// explicit zone lists (configurations travel whole the first time a rank
/// sees a walker, as moved-site deltas afterwards — the t-matrix-update
/// scatter), the ranks run the LIZ solves serially, and the controller
/// fills every other zone from the basis and sums in atom order, making the
/// distributed total bit-identical to LsmsSolver::energies: an unaffected
/// zone's inputs are bitwise those of the basis evaluation. A request equal
/// to its basis completes without a scatter.
///
/// Resilience (paper §V): rank death — socket EOF, a killed thread, or a
/// heartbeat older than `heartbeat_timeout` while work is assigned — is
/// detected inside retrieve(), the victim's group re-scatters the affected
/// request over its surviving ranks (or the request migrates to another
/// group), and outstanding() never miscounts. Stale gathers from the
/// aborted scatter are discarded by attempt number; a rank whose gather is
/// anything but its current zone list is killed and rerouted the same way.
/// Only when every rank of every group is gone does retrieve() throw.

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
  /// Controller poll granularity inside retrieve().
  std::chrono::milliseconds poll_interval{20};
  /// A rank with assigned work unheard-from for longer than this is
  /// declared dead and its work rerouted. Must comfortably exceed the
  /// worst-case single-shard solve time (workers cannot heartbeat while
  /// computing).
  std::chrono::milliseconds heartbeat_timeout{5000};
  /// Listener/handshake/coalescing knobs, used only when `transport` is
  /// kTcp. With `tcp.spawn_workers` false the workers are external
  /// processes started by the operator (`wlsms worker --connect`), running
  /// run_shard_worker over their own solver build.
  TcpOptions tcp;
};

/// The worker-rank protocol loop of DistributedEnergyService: caches the
/// last configuration per (session, walker) (the basis delta scatters apply
/// to, dropped again on a ShardEvict when that session ends), runs the
/// serial zone-list solves of `solver`, and replies with gathers.
/// Returns when the channel reports shutdown/EOF; throws on a malformed
/// request (a throwing worker is a dying worker — the controller reroutes).
/// Exposed so external TCP workers (`wlsms worker`) run the identical loop
/// the controller forks locally.
void run_shard_worker(WorkerChannel& channel,
                      std::shared_ptr<const lsms::LsmsSolver> solver);

/// Group-sharded, transport-agnostic, fault-tolerant energy service.
class DistributedEnergyService final : public wl::EnergyService {
 public:
  /// Workers run per-atom zone solves of `solver`. With the process
  /// transport the solver must be fully constructed before this call (the
  /// children inherit it copy-on-write) and linalg GEMM threading must be
  /// off (the default) — see communicator.hpp fork discipline.
  DistributedEnergyService(std::shared_ptr<const lsms::LsmsSolver> solver,
                           DistributedConfig config);
  ~DistributedEnergyService() override;

  void submit(wl::EnergyRequest request) override;
  wl::EnergyResult retrieve() override;
  std::size_t outstanding() const override { return outstanding_; }

  /// Drops every (session, walker) delta-cache entry and cached evaluation
  /// of `session`, on the controller and on every alive worker rank.
  /// Multiplexers serving many short-lived tenant sessions over one service
  /// call this when a session ends, so the caches cannot grow without bound
  /// under session churn; a reused (session, walker) key simply scatters
  /// full again and solves every zone.
  void evict_session(std::uint64_t session);

  /// Controller-side delta-cache entries summed over ranks (for tests and
  /// capacity monitoring).
  std::size_t delta_cache_entries() const;

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
  /// Death and heartbeat-timeout sweep over busy groups; reroutes work.
  void check_health();
  /// Reacts to the death of `rank`: forgets its delta cache and, if its
  /// group had work in flight, re-scatters that work.
  void on_rank_death(std::size_t rank);

  std::shared_ptr<const lsms::LsmsSolver> solver_;
  DistributedConfig config_;
  std::unique_ptr<Communicator> comm_;
  std::vector<Group> groups_;
  std::vector<std::size_t> rank_group_;  ///< rank id -> group index

  /// Delta-cache key: one tenant-session's walker. The serving daemon
  /// multiplexes many sessions over one service, so walker id alone would
  /// alias two tenants' configurations and corrupt the delta basis.
  using ConfigKey = std::pair<std::uint64_t, std::uint64_t>;

  /// Per-rank, per-(session, walker) directions last successfully sent:
  /// the basis the moved-site delta scatter is encoded against.
  std::vector<std::map<ConfigKey, std::vector<Vec3>>> sent_;

  /// Per-(session, walker) last two completed evaluations. A completion
  /// keeps the slot its request diffed against and overwrites the other,
  /// so the walker's current configuration stays cached through any
  /// accept/reject sequence (after a rejection the walker is back at the
  /// configuration before the last one).
  std::map<ConfigKey, std::array<Basis, 2>> bases_;

  /// Per-rank flag: this rank's death was already counted in the
  /// comm.rank_deaths metric (on_rank_death can fire more than once for
  /// one rank — observed death, then heartbeat sweep).
  std::vector<std::uint8_t> death_counted_;

  std::deque<wl::EnergyRequest> waiting_;  ///< submitted, no free group yet
  std::deque<wl::EnergyResult> done_;      ///< completed, not yet retrieved
  std::size_t outstanding_ = 0;
  std::uint32_t next_attempt_ = 1;
  std::uint64_t reroutes_ = 0;
};

}  // namespace wlsms::comm
