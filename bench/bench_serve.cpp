// The serving daemon's cross-walker batching measured for real: eight
// concurrent walkers' energy requests coalesced by the BatchScheduler into
// batched solves (every walker's zone solves in one OpenMP loop) versus the
// same requests computed one at a time through the synchronous service
// (one walker's zone solves per OpenMP loop), and the same requests
// end-to-end over a live TCP daemon with eight connected tenants. The bench
// fails unless every batched energy is bit-identical to the serial solver,
// batching engages, and the batched path is at least as fast as
// one-at-a-time (the median throughput ratio over 30 paired reps).
//
// Writes BENCH_serve.json (path = argv[1], default ./BENCH_serve.json) for
// regression tracking; `ctest -L perf` runs it as perf_serve.
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/table.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/scheduler.hpp"

namespace {

using namespace wlsms;

constexpr std::size_t kWalkers = 8;   // concurrent walkers (acceptance: >= 8)
constexpr std::size_t kRounds = 4;    // submissions per walker
constexpr std::size_t kEvals = kWalkers * kRounds;
constexpr int kPairs = 30;            // paired timing reps of the two arms

/// Serving-fidelity substrate: the fast contour but a 50-member LIZ, so
/// every zone solve factors 50 x 50 spin blocks that span four 16-row
/// blocks of linalg::spin_block_solve's blocked factorizations.
std::shared_ptr<const lsms::LsmsSolver> serving_solver() {
  lsms::LsmsParameters params = lsms::fe_lsms_parameters_fast();
  params.liz_radius = 9.1;  // 1st-4th bcc shells: 50 neighbours
  return std::make_shared<const lsms::LsmsSolver>(lattice::make_fe_supercell(2),
                                                  params);
}

struct Timed {
  double seconds = 0.0;
  double occupancy = 0.0;  ///< requests per solver dispatch (1 = no batching)
  double max_diff = 0.0;   ///< vs the serial solver (must be exactly 0)
};

// One walker per session, round-robin submission order — the daemon's view
// of M independent Wang-Landau walkers hammering one substrate.
Timed run_batched(const std::shared_ptr<const lsms::LsmsSolver>& solver,
                  const std::vector<spin::MomentConfiguration>& configs,
                  const std::vector<double>& reference) {
  serve::ServeLimits limits;
  limits.max_pending = kEvals + 8;
  limits.max_session_outstanding = kRounds;
  limits.max_batch = kWalkers;
  serve::BatchScheduler scheduler(solver, limits);

  Timed timed;
  perf::Timer timer;
  std::vector<serve::BatchScheduler::Completed> completed;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t w = 0; w < kWalkers; ++w) {
      const std::size_t k = round * kWalkers + w;
      scheduler.submit(w + 1, {w, k + 1, configs[k]});
    }
    while (scheduler.pending() > 0) scheduler.run_next_batch(completed);
  }
  timed.seconds = timer.seconds();

  const serve::BatchScheduler::Stats stats = scheduler.stats();
  if (stats.batches > 0)
    timed.occupancy = static_cast<double>(stats.batched_requests +
                                          stats.singleton_requests) /
                      static_cast<double>(stats.batches);
  for (const serve::BatchScheduler::Completed& done : completed)
    timed.max_diff =
        std::max(timed.max_diff, std::fabs(done.result.energy -
                                           reference[done.result.ticket - 1]));
  return timed;
}

Timed run_one_at_a_time(const wl::LsmsEnergy& energy,
                        const std::vector<spin::MomentConfiguration>& configs,
                        const std::vector<double>& reference) {
  wl::SynchronousEnergyService sync(energy);
  Timed timed;
  timed.occupancy = 1.0;
  perf::Timer timer;
  for (std::size_t k = 0; k < kEvals; ++k) {
    sync.submit({k % kWalkers, k + 1, configs[k]});
    const wl::EnergyResult result = sync.retrieve();
    timed.max_diff = std::max(
        timed.max_diff, std::fabs(result.energy - reference[result.ticket - 1]));
  }
  timed.seconds = timer.seconds();
  return timed;
}

// End-to-end over loopback TCP: eight connected tenants, one walker each,
// all rounds pipelined so the daemon's batch window sees the full fan-in.
Timed run_tcp_daemon(const std::shared_ptr<const lsms::LsmsSolver>& solver,
                     const std::vector<spin::MomentConfiguration>& configs,
                     const std::vector<double>& reference) {
  serve::ServeOptions options;
  options.limits.max_pending = kEvals + 8;
  options.limits.max_session_outstanding = kRounds;
  options.limits.max_batch = kWalkers;
  options.limits.batch_window = std::chrono::milliseconds(10);
  serve::Daemon daemon(solver, options);
  std::thread server([&daemon] { daemon.run(); });

  Timed timed;
  {
    std::vector<std::unique_ptr<serve::ServeClient>> clients;
    for (std::size_t w = 0; w < kWalkers; ++w) {
      serve::ClientOptions client_options;
      client_options.tenant = "walker" + std::to_string(w);
      clients.push_back(std::make_unique<serve::ServeClient>(daemon.address(),
                                                             client_options));
    }
    perf::Timer timer;
    for (std::size_t round = 0; round < kRounds; ++round)
      for (std::size_t w = 0; w < kWalkers; ++w) {
        const std::size_t k = round * kWalkers + w;
        clients[w]->submit({w, k + 1, configs[k]});
      }
    for (std::size_t w = 0; w < kWalkers; ++w)
      while (clients[w]->outstanding() > 0) {
        const wl::EnergyResult result = clients[w]->retrieve();
        timed.max_diff =
            std::max(timed.max_diff, std::fabs(result.energy -
                                               reference[result.ticket - 1]));
      }
    timed.seconds = timer.seconds();
  }
  daemon.stop();
  server.join();

  const serve::BatchScheduler::Stats stats = daemon.scheduler_stats();
  if (stats.batches > 0)
    timed.occupancy = static_cast<double>(stats.batched_requests +
                                          stats.singleton_requests) /
                      static_cast<double>(stats.batches);
  return timed;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The median time over `reps`; occupancy from the first rep (every rep
/// batches the same requests the same way) and the worst |dE| of any rep.
Timed summarize(const std::vector<Timed>& reps) {
  Timed summary = reps.front();
  std::vector<double> seconds;
  for (const Timed& t : reps) {
    seconds.push_back(t.seconds);
    summary.max_diff = std::max(summary.max_diff, t.max_diff);
  }
  summary.seconds = median(std::move(seconds));
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "serving daemon (cross-walker batched solves)",
      "M independent walkers' LIZ solves coalesced into one parallel loop "
      "without changing a single bit of any energy");

  const std::string json_path = argc > 1 ? argv[1] : "BENCH_serve.json";

  const auto solver = serving_solver();
  const wl::LsmsEnergy energy(solver);
  std::printf("substrate: %zu atoms, %zu-atom LIZ, %zu contour points\n",
              solver->n_atoms(), solver->liz_size(0),
              solver->contour().size());
  std::printf("workload: %zu walkers x %zu rounds = %zu evaluations, "
              "%d paired reps (medians; the tcp row is one run)\n\n",
              kWalkers, kRounds, kEvals, kPairs);

  Rng rng(41);
  std::vector<spin::MomentConfiguration> configs;
  std::vector<double> reference(kEvals);
  for (std::size_t k = 0; k < kEvals; ++k)
    configs.push_back(
        spin::MomentConfiguration::random(solver->n_atoms(), rng));
  for (std::size_t k = 0; k < kEvals; ++k)
    reference[k] = energy.total_energy(configs[k]);  // also warms caches

  // Each pair runs both arms back to back, alternating which goes first so
  // drift over the run cannot favour either side, and the gate reads the
  // median of the per-pair throughput ratios: pairing cancels host load
  // that drifts slower than a pair, and the median ignores the pairs in
  // which a preempted thread stalled one arm. (Best of five per arm, the
  // earlier estimate, read 0.99-1.20x on one unchanged binary on a shared
  // 4-vCPU host and failed about one run in ten.)
  std::vector<Timed> serial_reps, batched_reps;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    if (pair % 2 == 0) {
      serial_reps.push_back(run_one_at_a_time(energy, configs, reference));
      batched_reps.push_back(run_batched(solver, configs, reference));
    } else {
      batched_reps.push_back(run_batched(solver, configs, reference));
      serial_reps.push_back(run_one_at_a_time(energy, configs, reference));
    }
    ratios.push_back(serial_reps.back().seconds / batched_reps.back().seconds);
  }
  const Timed serial = summarize(serial_reps);
  const Timed batched = summarize(batched_reps);
  const Timed tcp = run_tcp_daemon(solver, configs, reference);
  const double speedup = median(ratios);

  const double serial_tput = kEvals / serial.seconds;
  const double batched_tput = kEvals / batched.seconds;
  const double tcp_tput = kEvals / tcp.seconds;

  io::TextTable table(
      {"mode", "s total", "evals/s", "occupancy", "max |dE|"});
  const auto add_row = [&](const char* label, const Timed& t) {
    table.row({label, io::format_double(t.seconds, 3),
               io::format_double(kEvals / t.seconds, 2),
               io::format_double(t.occupancy, 2),
               t.max_diff == 0.0 ? "0 (bit-identical)"
                                 : io::format_double(t.max_diff, 12)});
  };
  add_row("one-at-a-time (sync)", serial);
  add_row("batched scheduler", batched);
  add_row("tcp daemon, 8 tenants", tcp);
  table.print();

  std::printf("\nbatched vs one-at-a-time: %.2fx aggregate throughput "
              "(paired median) at %zu concurrent walkers, occupancy %.1f\n",
              speedup, kWalkers, batched.occupancy);
  if (batched.occupancy <= 1.0)
    std::printf("** batching never engaged — occupancy <= 1 **\n");
  const bool batched_keeps_up = speedup >= 1.0;
  if (!batched_keeps_up)
    std::printf("** batched dispatch is slower than one-at-a-time **\n");

  const double worst_diff =
      std::max(batched.max_diff, std::max(tcp.max_diff, serial.max_diff));
  std::printf("bit-identity vs serial solver: max |dE| = %.3e Ry%s\n",
              worst_diff, worst_diff == 0.0 ? " (exact)" : "  ** MISMATCH **");

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"walkers\": %zu,\n"
               "  \"evals\": %zu,\n"
               "  \"one_at_a_time\": {\"s_total\": %.6e, \"evals_per_s\": "
               "%.4f},\n"
               "  \"batched\": {\"s_total\": %.6e, \"evals_per_s\": %.4f, "
               "\"batch_occupancy\": %.4f},\n"
               "  \"tcp_daemon\": {\"s_total\": %.6e, \"evals_per_s\": %.4f, "
               "\"batch_occupancy\": %.4f},\n"
               "  \"batched_vs_one_at_a_time_speedup\": %.4f,\n"
               "  \"max_abs_energy_diff_vs_serial\": %.6e\n"
               "}\n",
               kWalkers, kEvals, serial.seconds, serial_tput, batched.seconds,
               batched_tput, batched.occupancy, tcp.seconds, tcp_tput,
               tcp.occupancy, speedup, worst_diff);
  std::fclose(json);
  std::printf("results written to %s\n", json_path.c_str());

  return (worst_diff == 0.0 && batched.occupancy > 1.0 && batched_keeps_up)
             ? 0
             : 1;
}
