// The communication layer measured for real: submit -> retrieve round-trip
// latency of the distributed energy service on both transports (threads
// and loopback TCP), the group-sharded evaluation time of the paper's
// 16-site iron cell, the wire traffic of a single-site move walk, and a
// Fig.-7-style weak-scaling series over loopback
// TCP workers, each a fork()ed OS process (groups x 1 rank, fixed WL
// evaluations per group — the paper's "adding walkers adds cores at
// constant runtime" experiment, scaled to this host).
//
// Every distributed total is cross-checked against the serial solver: the
// per-atom gather plus atom-ordered sum makes them bit-identical, and this
// bench fails loudly if they ever are not.
//
// Writes BENCH_comm.json (path = argv[1], default ./BENCH_comm.json) for
// regression tracking; `ctest -L perf` runs it as perf_comm, which fails
// unless every series reads max |dE| = 0.
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "comm/distributed_service.hpp"
#include "comm/factory.hpp"
#include "io/table.hpp"
#include "lsms/solver.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace wlsms;

/// The distributed service's traffic, both directions: shard requests
/// scattered plus shard results gathered, and their payload bytes.
struct Traffic {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

Traffic traffic() {
  obs::Registry& registry = obs::Registry::instance();
  return {registry.counter("comm.frames_sent").value() +
              registry.counter("comm.frames_received").value(),
          registry.counter("comm.bytes_sent").value() +
              registry.counter("comm.bytes_received").value()};
}

struct EvalRun {
  double seconds = 0.0;
  double max_diff = 0.0;  ///< vs the serial solver (must be exactly 0)
};

// Pushes `n_evals` random configurations through a freshly built
// distributed service (construction excluded from the timing) and checks
// every total against the serial reference.
EvalRun run_evals(const wl::LsmsEnergy& energy, comm::Transport transport,
                  std::size_t groups, std::size_t group_size,
                  std::size_t n_evals, std::uint64_t seed) {
  comm::EnergyServiceSpec spec;
  spec.kind = comm::ServiceKind::kDistributed;
  spec.energy = &energy;
  spec.distributed.n_groups = groups;
  spec.distributed.group_size = group_size;
  spec.distributed.transport = transport;
  const std::unique_ptr<wl::EnergyService> service =
      comm::make_energy_service(spec);

  Rng rng(seed);
  std::vector<spin::MomentConfiguration> configs;
  for (std::size_t k = 0; k < n_evals; ++k)
    configs.push_back(
        spin::MomentConfiguration::random(energy.n_sites(), rng));

  perf::Timer timer;
  for (std::size_t k = 0; k < n_evals; ++k)
    service->submit({k % groups, k + 1, configs[k]});
  std::vector<double> energies(n_evals, 0.0);
  for (std::size_t k = 0; k < n_evals; ++k) {
    const wl::EnergyResult result = service->retrieve();
    energies[result.ticket - 1] = result.energy;
  }
  EvalRun run;
  run.seconds = timer.seconds();
  for (std::size_t k = 0; k < n_evals; ++k)
    run.max_diff = std::max(
        run.max_diff,
        std::fabs(energies[k] - energy.total_energy(configs[k])));
  return run;
}

struct MoveWalk {
  std::size_t evals = 0;
  Traffic wire;           ///< frames and bytes the walk scattered and gathered
  double max_diff = 0.0;  ///< vs the serial solver (must be exactly 0)
};

// A Wang-Landau-shaped workload on one group: sequential single-site moves
// of one walker, each scattered as the whole configuration with the zones
// the move touches.
MoveWalk run_move_walk(const wl::LsmsEnergy& energy,
                       std::shared_ptr<const lsms::LsmsSolver> solver,
                       comm::Transport transport, std::size_t group_size,
                       std::size_t n_evals, std::uint64_t seed) {
  comm::DistributedConfig config;
  config.n_groups = 1;
  config.group_size = group_size;
  config.transport = transport;
  comm::DistributedEnergyService service(std::move(solver), config);

  Rng rng(seed);
  spin::MomentConfiguration moments =
      spin::MomentConfiguration::random(energy.n_sites(), rng);
  MoveWalk walk;
  walk.evals = n_evals;
  const Traffic before = traffic();
  for (std::size_t k = 0; k < n_evals; ++k) {
    moments.set(rng.uniform_index(energy.n_sites()), rng.unit_vector());
    service.submit({0, k + 1, moments});
    const wl::EnergyResult result = service.retrieve();
    walk.max_diff = std::max(
        walk.max_diff, std::fabs(result.energy - energy.total_energy(moments)));
  }
  const Traffic after = traffic();
  walk.wire = {after.frames - before.frames, after.bytes - before.bytes};
  return walk;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("communication layer (transports, sharding, weak scaling)",
                "one WL master feeding M independent N-core LSMS groups "
                "(Fig. 3); runtime stays flat as walkers add groups (Fig. 7)");

  const std::string json_path = argc > 1 ? argv[1] : "BENCH_comm.json";

  // The paper's 16-site benchmark geometry at reduced-LIZ fidelity.
  const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(2), lsms::fe_lsms_parameters_fast());
  const wl::LsmsEnergy energy(solver);

  // Serial reference cost: the median of single evaluations, each timed on
  // its own after a warm-up. Every "vs serial" ratio divides by it, and a
  // mean over a few evaluations swung by 10x whenever one of them stalled
  // on a shared host.
  double serial_s = 0.0;
  {
    constexpr std::size_t kWarmupEvals = 2;
    constexpr std::size_t kSerialEvals = 21;
    Rng rng(4);
    std::vector<double> seconds;
    for (std::size_t k = 0; k < kWarmupEvals + kSerialEvals; ++k) {
      const auto cfg =
          spin::MomentConfiguration::random(energy.n_sites(), rng);
      const perf::Timer timer;
      (void)energy.total_energy(cfg);
      if (k >= kWarmupEvals) seconds.push_back(timer.seconds());
    }
    std::sort(seconds.begin(), seconds.end());
    serial_s = seconds[kSerialEvals / 2];
  }
  std::printf("serial reference: %.2f ms per 16-site evaluation (median)\n\n",
              serial_s * 1e3);

  // --- submit -> retrieve latency per transport, single 1-rank group ------
  constexpr std::size_t kLatencyEvals = 6;
  const EvalRun lat_inproc = run_evals(energy, comm::Transport::kInProcess, 1,
                                       1, kLatencyEvals, 11);
  const EvalRun lat_tcp =
      run_evals(energy, comm::Transport::kTcp, 1, 1, kLatencyEvals, 11);

  // --- group-sharded 16-site evaluation (1 group x 4 ranks) ---------------
  constexpr std::size_t kShardEvals = 6;
  const EvalRun shard_inproc = run_evals(energy, comm::Transport::kInProcess,
                                         1, 4, kShardEvals, 13);
  const EvalRun shard_tcp =
      run_evals(energy, comm::Transport::kTcp, 1, 4, kShardEvals, 13);

  io::TextTable table({"configuration", "s/eval", "vs serial", "max |dE|"});
  const auto add_row = [&](const char* label, const EvalRun& run,
                           std::size_t evals) {
    table.row({label, io::format_double(run.seconds / evals, 4),
               io::format_double(run.seconds / evals / serial_s, 2) + "x",
               run.max_diff == 0.0 ? "0 (bit-identical)"
                                   : io::format_double(run.max_diff, 12)});
  };
  add_row("inprocess 1x1", lat_inproc, kLatencyEvals);
  add_row("tcp       1x1 (loopback)", lat_tcp, kLatencyEvals);
  add_row("inprocess 1x4 (sharded)", shard_inproc, kShardEvals);
  add_row("tcp       1x4 (sharded)", shard_tcp, kShardEvals);
  table.print();

  // --- move-walk wire traffic, 1x4 TCP group -----------------------------
  constexpr std::size_t kWalkEvals = 16;
  const MoveWalk walk = run_move_walk(energy, solver, comm::Transport::kTcp,
                                      4, kWalkEvals, 19);
  std::printf("\nmove walk, tcp 1x4, %zu evals:\n", walk.evals);
  std::printf("  frames / eval: %.2f  (shard requests + results)\n",
              static_cast<double>(walk.wire.frames) / walk.evals);
  std::printf("  bytes  / eval: %.0f\n",
              static_cast<double>(walk.wire.bytes) / walk.evals);

  // --- weak scaling over loopback TCP workers (Fig. 7 shape) --------------
  // Fixed evaluations per group; each group is one TCP rank, a fork()ed
  // worker process. On a multi-core host the runtime stays near-flat as
  // groups are added; the series still verifies the multi-process plumbing
  // end to end on any host (and the largest point runs 4 real processes).
  constexpr std::size_t kEvalsPerGroup = 3;
  std::printf("\nweak scaling, tcp transport, %zu evals per group:\n",
              kEvalsPerGroup);
  const std::vector<std::size_t> group_counts = {1, 2, 4};
  std::vector<EvalRun> weak;
  io::TextTable wtable({"groups (= processes)", "runtime [s]", "vs 1 group"});
  for (std::size_t g : group_counts) {
    weak.push_back(run_evals(energy, comm::Transport::kTcp, g, 1,
                             g * kEvalsPerGroup, 17));
    wtable.row({std::to_string(g), io::format_double(weak.back().seconds, 3),
                io::format_double(weak.back().seconds / weak.front().seconds,
                                  2)});
  }
  wtable.print();

  double worst_diff = std::max(
      std::max(lat_inproc.max_diff, lat_tcp.max_diff),
      std::max(shard_inproc.max_diff, shard_tcp.max_diff));
  worst_diff = std::max(worst_diff, walk.max_diff);
  for (const EvalRun& run : weak)
    worst_diff = std::max(worst_diff, run.max_diff);
  std::printf("\nbit-identity vs serial solver: max |dE| = %.3e Ry%s\n",
              worst_diff, worst_diff == 0.0 ? " (exact)" : "  ** MISMATCH **");

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"serial_s_per_eval\": %.6e,\n"
               "  \"latency_s_per_eval\": {\"inprocess\": %.6e, "
               "\"tcp\": %.6e},\n"
               "  \"sharded_1x4_s_per_eval\": {\"inprocess\": %.6e, "
               "\"tcp\": %.6e},\n"
               "  \"move_walk_tcp_1x4\": {\"evals\": %zu, "
               "\"frames_per_eval\": %.4f, \"bytes_per_eval\": %.1f},\n"
               "  \"weak_scaling_tcp\": [\n",
               serial_s, lat_inproc.seconds / kLatencyEvals,
               lat_tcp.seconds / kLatencyEvals,
               shard_inproc.seconds / kShardEvals,
               shard_tcp.seconds / kShardEvals, walk.evals,
               static_cast<double>(walk.wire.frames) / walk.evals,
               static_cast<double>(walk.wire.bytes) / walk.evals);
  for (std::size_t i = 0; i < weak.size(); ++i)
    std::fprintf(json,
                 "    {\"groups\": %zu, \"evals\": %zu, \"runtime_s\": %.6e}%s\n",
                 group_counts[i], group_counts[i] * kEvalsPerGroup,
                 weak[i].seconds, i + 1 < weak.size() ? "," : "");
  std::fprintf(json,
               "  ],\n"
               "  \"max_abs_energy_diff_vs_serial\": %.6e\n"
               "}\n",
               worst_diff);
  std::fclose(json);
  std::printf("results written to %s\n", json_path.c_str());

  return worst_diff == 0.0 ? 0 : 1;
}
