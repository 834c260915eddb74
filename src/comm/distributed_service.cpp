#include "comm/distributed_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <utility>

#include "comm/wire.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wlsms::comm {

namespace {

constexpr std::size_t kNoGroup = ~std::size_t{0};
constexpr std::size_t kNoBasis = ~std::size_t{0};

/// Controller poll granularity inside retrieve(): the longest a death or
/// heartbeat sweep waits while no gather arrives.
constexpr std::chrono::milliseconds kPollInterval{20};

struct CommMetrics {
  obs::Counter& frames_sent;
  obs::Counter& bytes_sent;
  obs::Counter& frames_received;
  obs::Counter& bytes_received;
  obs::Counter& zones_solved;
  obs::Counter& heartbeat_misses;
  obs::Counter& reroutes;
  obs::Counter& rank_deaths;
  obs::Gauge& dead_ranks;
  obs::Histogram& retrieve_latency_ms;
};

CommMetrics& comm_metrics() {
  static CommMetrics metrics{
      obs::Registry::instance().counter("comm.frames_sent"),
      obs::Registry::instance().counter("comm.bytes_sent"),
      obs::Registry::instance().counter("comm.frames_received"),
      obs::Registry::instance().counter("comm.bytes_received"),
      obs::Registry::instance().counter("comm.zones_solved"),
      obs::Registry::instance().counter("comm.heartbeat_misses"),
      obs::Registry::instance().counter("comm.reroutes"),
      obs::Registry::instance().counter("comm.rank_deaths"),
      obs::Registry::instance().gauge("comm.dead_ranks"),
      obs::Registry::instance().histogram(
          "comm.retrieve_latency_ms",
          {0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0}),
  };
  return metrics;
}

/// Bitwise direction equality. Vec3::operator== would treat -0.0 == 0.0 and
/// could miss a representation change; a zone left out of the scatter must
/// see bitwise the inputs of its basis evaluation.
bool same_bits(const Vec3& a, const Vec3& b) {
  return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

/// Sites whose direction differs bitwise between two configurations.
std::vector<std::size_t> changed_sites(const std::vector<Vec3>& a,
                                       const std::vector<Vec3>& b) {
  std::vector<std::size_t> changed;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) changed.push_back(i);
  return changed;
}

}  // namespace

void run_shard_worker(WorkerChannel& channel,
                      std::shared_ptr<const lsms::LsmsSolver> solver) {
  WLSMS_EXPECTS(solver != nullptr);
  while (std::optional<Message> message = channel.recv()) {
    if (message->tag != kTagShardRequest) continue;
    const ShardRequest request = decode_shard_request(message->payload);
    ShardResult result;
    result.ticket = request.ticket;
    result.attempt = request.attempt;
    result.zones = request.zones;
    {
      // Adopted from the originating driver span (possibly in another
      // process), so the merged trace nests this rank's solve under it.
      const obs::Span span("comm.shard_solve", request.trace);
      lsms::ZoneJob job{&request.config,
                        {request.zones.begin(), request.zones.end()}};
      // Serial: a fork()ed rank must stay off libgomp.
      result.energies =
          solver->solve_zones({std::move(job)}, lsms::ZoneThreading::kSerial)
              .front()
              .per_atom;
    }
    channel.send({kTagShardResult, encode_shard_result(result)});
  }
}

DistributedEnergyService::DistributedEnergyService(
    std::shared_ptr<const lsms::LsmsSolver> solver, DistributedConfig config)
    : solver_(std::move(solver)), config_(config) {
  WLSMS_EXPECTS(solver_ != nullptr);
  WLSMS_EXPECTS(config_.n_groups >= 1);
  WLSMS_EXPECTS(config_.group_size >= 1);
  WLSMS_EXPECTS(config_.heartbeat_timeout.count() > 0);

  const std::size_t n_ranks = config_.n_groups * config_.group_size;
  groups_.resize(config_.n_groups);
  rank_group_.resize(n_ranks);
  death_counted_.assign(n_ranks, 0);
  for (std::size_t r = 0; r < n_ranks; ++r) {
    const std::size_t g = r / config_.group_size;
    rank_group_[r] = g;
    groups_[g].ranks.push_back(r);
  }

  // The worker rank is run_shard_worker over this controller's solver —
  // forked locally on the tcp transport (copy-on-write solver), threaded
  // in-process, or not at all when external TCP workers bring their own
  // solver build.
  WorkerMain worker_main = [solver = solver_](WorkerChannel& channel) {
    run_shard_worker(channel, solver);
  };
  if (config_.transport == Transport::kTcp)
    comm_ = make_tcp_communicator(n_ranks, std::move(worker_main),
                                  config_.tcp);
  else
    comm_ = make_in_process_communicator(n_ranks, std::move(worker_main));
}

DistributedEnergyService::~DistributedEnergyService() {
  if (comm_) comm_->shutdown();
}

void DistributedEnergyService::submit(wl::EnergyRequest request) {
  WLSMS_EXPECTS(request.config.size() == solver_->n_atoms());
  ++outstanding_;
  waiting_.push_back(std::move(request));
  pump_waiting();
}

wl::EnergyResult DistributedEnergyService::retrieve() {
  if (outstanding_ == 0)
    throw CommError("EnergyService::retrieve() with nothing outstanding");
  const obs::Span span("comm.retrieve");
  const auto enter = std::chrono::steady_clock::now();
  while (done_.empty()) {
    if (comm_->n_alive() == 0)
      throw CommError("all worker ranks dead with requests outstanding");
    if (std::optional<Incoming> incoming = comm_->recv(kPollInterval)) {
      if (incoming->message.tag == kTagShardResult) {
        if (!comm_->alive(incoming->rank)) {
          // A gather from a rank already declared dead: the kill raced the
          // worker's last send. Honoring it would make failover outcomes
          // depend on that race; discard and let the reroute recompute.
          log_debug("comm: discarding posthumous frame from dead rank ",
                    incoming->rank);
        } else {
          on_shard_result(incoming->rank, incoming->message.payload);
        }
      }
    }
    check_health();
    pump_waiting();
  }
  wl::EnergyResult result = std::move(done_.front());
  done_.pop_front();
  --outstanding_;
  comm_metrics().retrieve_latency_ms.observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - enter)
          .count());
  return result;
}

std::size_t DistributedEnergyService::idle_group() const {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].busy) continue;
    for (std::size_t rank : groups_[g].ranks)
      if (comm_->alive(rank)) return g;
  }
  return kNoGroup;
}

void DistributedEnergyService::pump_waiting() {
  while (!waiting_.empty()) {
    const std::size_t g = idle_group();
    if (g == kNoGroup) return;
    wl::EnergyRequest request = std::move(waiting_.front());
    waiting_.pop_front();
    if (!dispatch(g, request)) {
      // The group's last ranks died under us; park the request and let the
      // loop try the remaining groups (idle_group now skips this one).
      waiting_.push_front(std::move(request));
    }
  }
}

bool DistributedEnergyService::dispatch(std::size_t g,
                                        const wl::EnergyRequest& request) {
  const obs::Span span("comm.dispatch");
  Group& group = groups_[g];
  const std::size_t n_atoms = request.config.size();
  const std::vector<Vec3>& directions = request.config.directions();

  // Basis: the walker's cached evaluation with fewer changed sites. The
  // entry is created here, so the completion finds it.
  const std::array<Basis, 2>& slots =
      bases_[{request.session, request.walker}];
  std::size_t basis = kNoBasis;
  std::vector<std::size_t> changed;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s].directions.size() != n_atoms) continue;
    std::vector<std::size_t> diff =
        changed_sites(slots[s].directions, directions);
    if (basis == kNoBasis || diff.size() < changed.size()) {
      basis = s;
      changed = std::move(diff);
    }
  }

  // Zones to solve, ascending: every zone without a basis, else the union
  // of the zones whose LIZ contains a changed site.
  std::vector<std::size_t> zones;
  if (basis == kNoBasis) {
    zones.resize(n_atoms);
    std::iota(zones.begin(), zones.end(), std::size_t{0});
  } else {
    std::vector<std::uint8_t> touched(n_atoms, 0);
    for (std::size_t site : changed)
      for (std::size_t zone : solver_->affected_sites(site)) touched[zone] = 1;
    for (std::size_t zone = 0; zone < n_atoms; ++zone)
      if (touched[zone]) zones.push_back(zone);
  }
  if (zones.empty()) {
    // An identical resubmission: its energy is the basis's.
    complete(request, slots[basis].per_atom);
    return true;
  }

  // A send failure mid-scatter means a rank died between the alive() check
  // and the write: restart the whole scatter over the survivors with a
  // fresh attempt number, so partial shards of the aborted scatter are
  // recognizably stale.
  while (true) {
    std::vector<std::size_t> alive;
    for (std::size_t rank : group.ranks)
      if (comm_->alive(rank)) alive.push_back(rank);
    if (alive.empty()) {
      group.busy = false;
      return false;
    }
    const std::size_t n_shards = std::min(alive.size(), zones.size());
    group.busy = true;
    group.request = request;
    group.attempt = next_attempt_++;
    group.basis = basis;
    group.assigned.clear();
    if (basis == kNoBasis)
      group.per_atom.assign(n_atoms, 0.0);
    else
      group.per_atom = slots[basis].per_atom;
    group.pending.assign(n_atoms, 0);
    for (std::size_t zone : zones) group.pending[zone] = 1;
    group.missing = zones.size();

    // Even split of the zone list, remainder spread from the front: every
    // zone costs the same, so the slowest rank gets ceil(zones / ranks).
    // Every shard carries the whole configuration.
    ShardRequest shard;
    shard.ticket = request.ticket;
    shard.attempt = group.attempt;
    shard.trace = request.trace;
    shard.config = request.config;
    bool scatter_ok = true;
    const std::size_t base = zones.size() / n_shards;
    const std::size_t rem = zones.size() % n_shards;
    auto first = zones.begin();
    for (std::size_t s = 0; s < n_shards; ++s) {
      const std::size_t rank = alive[s];
      const auto last = first + static_cast<std::ptrdiff_t>(
                                    base + (s < rem ? 1 : 0));
      shard.zones.assign(first, last);
      const Message message{kTagShardRequest, encode_shard_request(shard)};
      if (!comm_->send(rank, message)) {
        log_debug("comm: send to rank ", rank, " (group ", g,
                  ") failed mid-scatter of ticket ", request.ticket,
                  "; restarting scatter over survivors");
        scatter_ok = false;
        break;
      }
      CommMetrics& metrics = comm_metrics();
      metrics.frames_sent.inc();
      metrics.bytes_sent.add(message.payload.size());
      group.assigned.push_back({rank, std::vector<std::size_t>(first, last)});
      first = last;
    }
    if (scatter_ok) return true;
  }
}

void DistributedEnergyService::complete(const wl::EnergyRequest& request,
                                        const std::vector<double>& per_atom) {
  // Sum in atom order, exactly like LsmsSolver::energies sums per_atom —
  // this sequential reduction is what keeps the distributed total
  // bit-identical to the serial one.
  wl::EnergyResult done;
  done.walker = request.walker;
  done.ticket = request.ticket;
  done.energy = 0.0;
  for (double e : per_atom) done.energy += e;
  done.failed = false;
  done_.push_back(done);
}

void DistributedEnergyService::on_shard_result(
    std::size_t rank, const std::vector<std::byte>& payload) {
  CommMetrics& metrics = comm_metrics();
  metrics.frames_received.inc();
  metrics.bytes_received.add(payload.size());

  ShardResult result;
  try {
    result = decode_shard_result(payload);
  } catch (const serial::SerializationError& error) {
    // A rank speaking a corrupt protocol is as good as dead.
    log_warn("comm: rank ", rank, " (group ", rank_group_[rank],
             ") sent a corrupt shard result (", error.what(),
             "); killing it");
    comm_->kill(rank);
    on_rank_death(rank);
    return;
  }

  Group& group = groups_[rank_group_[rank]];
  if (!group.busy || group.request.ticket != result.ticket ||
      group.attempt != result.attempt) {
    log_debug("comm: rank ", rank, " (group ", rank_group_[rank],
              ") returned a stale gather for ticket ", result.ticket,
              " attempt ", result.attempt, "; discarded");
    return;  // stale gather from an aborted scatter
  }
  // A rank gathers exactly its current assignment. Anything else — an index
  // past the configuration, another rank's zone, a partial list that would
  // leave the group waiting forever, a gather from a rank given no zones —
  // is a broken or hostile worker.
  const auto assignment =
      std::find_if(group.assigned.begin(), group.assigned.end(),
                   [rank](const Assignment& a) { return a.rank == rank; });
  if (assignment == group.assigned.end() ||
      !std::equal(assignment->zones.begin(), assignment->zones.end(),
                  result.zones.begin(), result.zones.end())) {
    log_warn("comm: rank ", rank, " (group ", rank_group_[rank],
             ") gathered zones other than its assignment for ticket ",
             result.ticket, "; killing it");
    comm_->kill(rank);
    on_rank_death(rank);
    return;
  }

  for (std::size_t k = 0; k < result.zones.size(); ++k) {
    const auto zone = static_cast<std::size_t>(result.zones[k]);
    if (!group.pending[zone]) continue;
    group.pending[zone] = 0;
    group.per_atom[zone] = result.energies[k];
    --group.missing;
    metrics.zones_solved.inc();
  }
  if (group.missing > 0) return;

  complete(group.request, group.per_atom);
  // Two-basis rule: keep the slot this evaluation diffed against and
  // overwrite the other.
  bases_[{group.request.session, group.request.walker}]
        [group.basis == 0 ? 1 : 0] = {group.request.config.directions(),
                                      std::move(group.per_atom)};
  group.busy = false;
  pump_waiting();
}

void DistributedEnergyService::check_health() {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Group& group = groups_[g];
    if (!group.busy) continue;
    for (const Assignment& assignment : group.assigned) {
      if (std::none_of(assignment.zones.begin(), assignment.zones.end(),
                       [&](std::size_t zone) { return group.pending[zone]; }))
        continue;

      if (!comm_->alive(assignment.rank)) {
        log_warn("comm: rank ", assignment.rank, " (group ", g,
                 ") died with ", assignment.zones.size(),
                 " zones assigned; rerouting");
        on_rank_death(assignment.rank);
        break;  // group state was rebuilt; assignments are gone
      }
      const std::uint64_t silent_ms =
          comm_->millis_since_heard(assignment.rank);
      if (silent_ms >
          static_cast<std::uint64_t>(config_.heartbeat_timeout.count())) {
        // Alive but silent past the deadline with work assigned: wedged.
        // Kill it so the transport stops waiting on it, then reroute.
        comm_metrics().heartbeat_misses.inc();
        log_warn("comm: rank ", assignment.rank, " (group ", g,
                 ") unheard for ", silent_ms, " ms (timeout ",
                 config_.heartbeat_timeout.count(), " ms) with ",
                 assignment.zones.size(), " zones assigned; killing and "
                 "rerouting");
        comm_->kill(assignment.rank);
        on_rank_death(assignment.rank);
        break;
      }
    }
  }
  // A rank that died holding no pending work (idle, or after its gather)
  // has nothing to reroute, but its death still counts.
  for (std::size_t rank = 0; rank < death_counted_.size(); ++rank) {
    if (death_counted_[rank] || comm_->alive(rank)) continue;
    log_warn("comm: rank ", rank, " (group ", rank_group_[rank],
             ") died holding no pending work");
    count_death(rank);
  }
}

void DistributedEnergyService::count_death(std::size_t rank) {
  CommMetrics& metrics = comm_metrics();
  if (!death_counted_[rank]) {
    death_counted_[rank] = 1;
    metrics.rank_deaths.inc();
  }
  metrics.dead_ranks.set(
      static_cast<double>(comm_->n_ranks() - comm_->n_alive()));
}

void DistributedEnergyService::on_rank_death(std::size_t rank) {
  count_death(rank);
  CommMetrics& metrics = comm_metrics();
  const std::size_t g = rank_group_[rank];
  Group& group = groups_[g];
  if (!group.busy) return;
  bool was_assigned = false;
  for (const Assignment& assignment : group.assigned)
    if (assignment.rank == rank) {
      was_assigned = true;
      break;
    }
  if (!was_assigned) return;

  ++reroutes_;
  metrics.reroutes.inc();
  wl::EnergyRequest request = std::move(group.request);
  group.busy = false;
  if (dispatch(g, request)) {
    log_info("comm: rescattered ticket ", request.ticket, " over group ", g,
             "'s survivors after the death of rank ", rank);
  } else {
    // The whole group is gone: migrate the request to another group.
    log_warn("comm: group ", g, " is extinct after the death of rank ", rank,
             "; migrating ticket ", request.ticket, " to another group");
    waiting_.push_front(std::move(request));
    pump_waiting();
  }
}

}  // namespace wlsms::comm
