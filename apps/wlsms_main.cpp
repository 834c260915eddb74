// wlsms — command-line driver for the WL-LSMS reproduction.
//
// Subcommands:
//   curie    converge the Wang-Landau DOS of an n^3-cell bcc Fe system and
//            report thermodynamics + the Curie temperature; optionally save
//            the DOS table as CSV
//   thermo   recompute F/U/c/S from a saved DOS table (no resampling)
//   extract  run the multiple-scattering substrate and print the extracted
//            exchange constants
//   scaling  simulate the paper's Cray XT5 runs (Fig. 7 / Table II)
//   distributed  evaluate LSMS energies sharded over real worker ranks
//            (threads, or TCP workers: forked locally or on other nodes)
//            and cross-check against the serial solver
//   worker   join a TCP controller as one worker rank (the multi-node
//            worker side of `distributed --transport tcp --external 1`)
//   serve    run the persistent multi-tenant energy daemon: clients submit
//            walker configurations over TCP and concurrent requests are
//            batched into one OpenMP solve over every (configuration, zone)
//            pair
//   client   drive a running daemon: submit random configurations as one
//            tenant and (optionally) cross-check the energies against a
//            local serial solver
//   status   fetch a running daemon's (or a --status-listen controller's)
//            live metrics as Prometheus text and print them
//
// Examples:
//   wlsms curie --cells 5 --gamma-final 1e-6 --dos fe250.csv
//   wlsms thermo --dos fe250.csv --tmin 300 --tmax 1500 --points 13
//   wlsms extract --liz 5.6 --contour 8 --shells 2
//   wlsms scaling --walkers 144 --steps 20
//   wlsms distributed --transport tcp --groups 2 --group-size 2
//   wlsms distributed --transport tcp --listen 0.0.0.0:7777 --external 1
//   wlsms worker --connect controller-host:7777
//   wlsms serve --cells 2 --listen 127.0.0.1:7878
//   wlsms client --connect 127.0.0.1:7878 --tenant alice --evals 16
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>

#include "cli.hpp"
#include "cluster/des.hpp"
#include "options.hpp"
#include "comm/distributed_service.hpp"
#include "comm/factory.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "heisenberg/heisenberg.hpp"
#include "io/dos_io.hpp"
#include "io/table.hpp"
#include "lsms/exchange.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/status.hpp"
#include "thermo/observables.hpp"
#include "wl/driver.hpp"
#include "wl/rewl.hpp"
#include "wl/wanglandau.hpp"

namespace {

using namespace wlsms;

int usage() {
  std::printf(
      "usage: wlsms <command> [--option value ...]\n"
      "\n"
      "commands:\n"
      "  curie    --cells N [--gamma-final G] [--walkers W] [--flatness A]\n"
      "           [--seed S] [--tmin K] [--dos out.csv]\n"
      "           [--rewl-windows N] [--rewl-overlap F]\n"
      "           [--rewl-exchange-interval STEPS]\n"
      "  thermo   --dos in.csv [--tmin K] [--tmax K] [--points N]\n"
      "  extract  [--liz R_a0] [--contour N] [--shells S] [--samples M]\n"
      "           [--cells N]\n"
      "  scaling  [--walkers N] [--steps N] [--atoms N]\n"
      "  distributed  [--transport inprocess|tcp] [--groups M]\n"
      "           [--group-size N] [--cells C] [--evals K] [--seed S]\n"
      "           [--check 0|1] [--wl-steps N] [--wl-walkers W]\n"
      "           [--status-listen HOST:PORT]   (live Prometheus endpoint;\n"
      "           probe it with `wlsms status`)\n"
      "           [--listen HOST:PORT] [--external 0|1]   (tcp only;\n"
      "           --external 1 waits for `wlsms worker` processes to join\n"
      "           instead of forking local workers)\n"
      "           [--speculate 0|1] [--spec-band B] [--spec-audit-frac F]\n"
      "           [--spec-refit-interval N] [--spec-budget RY]\n"
      "           (--speculate screens the --wl-steps run's proposals with\n"
      "           the online Heisenberg surrogate; exact mode is default)\n"
      "  worker   --connect HOST:PORT [--cells C]   (one TCP worker rank;\n"
      "           --cells must match the controller's, so the zone indices\n"
      "           it is sent name the same LIZs)\n"
      "  serve    [--cells C] [--listen HOST:PORT] [--max-pending N]\n"
      "           [--max-outstanding N] [--max-batch N] [--batch-window MS]\n"
      "           [--batch-threads N]\n"
      "           (multi-tenant energy daemon; a session lives as long as\n"
      "           its connection; Ctrl-C solves what is pending, delivers\n"
      "           it and exits; --batch-threads sets the OpenMP threads\n"
      "           each batch's zone solves share, default OMP_NUM_THREADS\n"
      "           or every core)\n"
      "  client   --connect HOST:PORT [--tenant NAME] [--evals K]\n"
      "           [--walkers W] [--seed S] [--cells C] [--check 0|1]\n"
      "           (--check needs --cells matching the daemon's)\n"
      "  status   HOST:PORT [--timeout MS]   (print a running daemon's or\n"
      "           --status-listen controller's metrics as Prometheus text)\n"
      "\n"
      "observability (any command):\n"
      "  --metrics-out FILE.jsonl   periodic run-health snapshots (metrics\n"
      "                             registry + per-kernel flops + Flop/s)\n"
      "  --snapshot-interval MS     snapshot period, default 1000\n"
      "  --trace-out FILE.json      Chrome trace_event spans; open the file\n"
      "                             in Perfetto (https://ui.perfetto.dev)\n"
      "  --log-level LEVEL          debug|info|warn|error|off\n");
  return 2;
}

/// The shared observability flags, read without acting on them, so a
/// command line with an unknown flag is refused before any file is opened.
struct ObsFlags {
  std::string log_level;
  std::string trace_path;
  std::string metrics_path;
  long snapshot_interval_ms = 1000;

  static ObsFlags parse(const cli::Options& options) {
    ObsFlags flags;
    flags.log_level = options.get_string("log-level", "");
    flags.trace_path = options.get_string("trace-out", "");
    flags.metrics_path = options.get_string("metrics-out", "");
    flags.snapshot_interval_ms =
        std::max<long>(1, options.get_long("snapshot-interval", 1000));
    return flags;
  }
};

/// RAII wiring of the shared observability flags: constructed in main()
/// before the command runs, torn down after it — the teardown order
/// guarantees the final snapshot record and the trace file are written even
/// when the command exits early.
class ObsScope {
 public:
  /// Returns nullptr (after printing a diagnostic) on a malformed
  /// --log-level; otherwise the configured scope.
  static std::unique_ptr<ObsScope> start(const ObsFlags& flags) {
    if (!flags.log_level.empty()) {
      LogLevel level = LogLevel::kInfo;
      if (!parse_log_level(flags.log_level, level)) {
        std::fprintf(stderr,
                     "error: --log-level '%s' is not one of "
                     "debug|info|warn|error|off\n",
                     flags.log_level.c_str());
        return nullptr;
      }
      set_log_level(level);
    }
    auto scope = std::unique_ptr<ObsScope>(new ObsScope);
    scope->trace_path_ = flags.trace_path;
    if (!scope->trace_path_.empty()) obs::enable_tracing();
    if (!flags.metrics_path.empty()) {
      obs::SnapshotConfig config;
      config.path = flags.metrics_path;
      config.interval = std::chrono::milliseconds(flags.snapshot_interval_ms);
      scope->snapshots_ = std::make_unique<obs::SnapshotWriter>(config);
    }
    return scope;
  }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  ~ObsScope() {
    // Final snapshot first (the writer's destructor emits the "final"
    // record), then drain the span rings into the trace file.
    snapshots_.reset();
    if (!trace_path_.empty()) {
      try {
        obs::write_chrome_trace(trace_path_);
        std::fprintf(stderr, "trace written to %s\n", trace_path_.c_str());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "error: trace export failed: %s\n", error.what());
      }
      obs::disable_tracing();
    }
  }

 private:
  ObsScope() = default;

  std::string trace_path_;
  std::unique_ptr<obs::SnapshotWriter> snapshots_;
};

wl::HeisenbergEnergy surrogate(std::size_t cells) {
  std::vector<double> j = lsms::fe_reference_exchange();
  for (double& v : j) v *= lsms::fe_exchange_energy_scale;
  return wl::HeisenbergEnergy(
      heisenberg::HeisenbergModel(lattice::make_fe_supercell(cells), j));
}

int cmd_curie(const cli::CurieOptions& opt) {
  wl::HeisenbergEnergy energy = surrogate(opt.cells);
  std::printf("system: %zu bcc Fe atoms (%zu^3 cells)\n", energy.n_sites(),
              opt.cells);

  Rng window_rng(5);
  wl::WangLandauConfig config;
  config.grid = wl::thermal_window(
      energy, energy.model().ferromagnetic_energy(), opt.t_min, window_rng);
  config.n_walkers = opt.walkers;
  config.flatness = opt.flatness;
  config.check_interval = 5000;
  config.max_iteration_steps = 2000000;

  thermo::DosTable dos;
  if (opt.rewl_windows > 1) {
    // Replica-exchange windowed decomposition (rewl.hpp).
    wl::RewlConfig rewl;
    rewl.base = config;
    rewl.n_windows = opt.rewl_windows;
    rewl.overlap = opt.rewl_overlap;
    rewl.exchange_interval = opt.rewl_interval;
    const wl::RewlResult result =
        wl::run_rewl(energy, rewl, wl::HalvingSchedule(1.0, opt.gamma_final),
                     Rng(opt.seed));
    std::uint64_t total_steps = 0;
    std::size_t iterations = 0;
    for (const wl::WangLandauStats& stats : result.per_window) {
      total_steps += stats.total_steps;
      iterations = std::max(iterations, stats.iterations);
    }
    std::printf(
        "converged: %llu WL steps over %zu windows (overlap %.0f %%), "
        "%zu gamma levels; %llu/%llu exchanges accepted\n",
        static_cast<unsigned long long>(total_steps), result.windows.size(),
        100.0 * opt.rewl_overlap, iterations,
        static_cast<unsigned long long>(result.exchange_accepts),
        static_cast<unsigned long long>(result.exchange_attempts));
    dos = thermo::dos_table(result.stitched);
  } else {
    wl::WangLandau sampler(
        energy, config,
        std::make_unique<wl::HalvingSchedule>(1.0, opt.gamma_final),
        Rng(opt.seed));
    sampler.run();
    std::printf("converged: %llu WL steps, %zu gamma levels (%zu forced)\n",
                static_cast<unsigned long long>(sampler.stats().total_steps),
                sampler.stats().iterations, sampler.stats().forced_iterations);
    dos = thermo::dos_table(sampler.dos());
  }
  if (!opt.dos_path.empty()) {
    io::save_dos(opt.dos_path, dos);
    std::printf("DOS written to %s (%zu bins)\n", opt.dos_path.c_str(),
                dos.energy.size());
  }

  io::TextTable table({"T [K]", "U [Ry]", "c [Ry/K]"});
  for (double t = 300.0; t <= 1800.0; t += 300.0) {
    const thermo::Observables obs = thermo::observables_at(dos, t);
    table.row({io::format_double(t, 0), io::format_double(obs.internal_energy, 5),
               io::format_double(obs.specific_heat * 1e4, 3) + "e-4"});
  }
  table.print();
  const thermo::CurieEstimate tc =
      thermo::estimate_curie_temperature(dos, 250.0, 3000.0);
  std::printf("Curie temperature (c-peak): %.0f K\n", tc.tc);
  return 0;
}

int cmd_thermo(const cli::ThermoOptions& opt) {
  const thermo::DosTable dos = io::load_dos(opt.dos_path);
  std::printf("loaded %zu DOS bins from %s (E in [%.4f, %.4f] Ry)\n",
              dos.energy.size(), opt.dos_path.c_str(), dos.energy.front(),
              dos.energy.back());

  io::TextTable table({"T [K]", "F' [Ry]", "U [Ry]", "c [Ry/K]", "S' [Ry/K]"});
  for (const thermo::Observables& obs :
       thermo::temperature_sweep(dos, opt.t_min, opt.t_max, opt.points)) {
    table.row({io::format_double(obs.temperature, 0),
               io::format_double(obs.free_energy, 4),
               io::format_double(obs.internal_energy, 5),
               io::format_double(obs.specific_heat * 1e4, 3) + "e-4",
               io::format_double(obs.entropy * 1e6, 2) + "e-6"});
  }
  table.print();
  const thermo::CurieEstimate tc =
      thermo::estimate_curie_temperature(dos, opt.t_min, opt.t_max);
  std::printf("c-peak: %.0f K\n", tc.tc);
  return 0;
}

int cmd_extract(const cli::ExtractOptions& opt) {
  lsms::LsmsParameters params = lsms::fe_lsms_parameters_fast();
  params.liz_radius = opt.liz;
  params.contour_points = opt.contour;
  const lsms::LsmsSolver solver(lattice::make_fe_supercell(opt.cells), params);
  std::printf("substrate: %zu atoms, %zu-atom LIZ, %zu contour points "
              "(%.2f GFlop per energy evaluation)\n",
              solver.n_atoms(), solver.liz_size(0), opt.contour,
              static_cast<double>(solver.flops_per_energy()) / 1e9);

  Rng rng(42);
  const lsms::ExtractedExchange exchange =
      lsms::extract_exchange(solver, opt.shells, opt.samples, rng);
  io::TextTable table({"shell", "radius [a0]", "bonds", "J [mRy]"});
  for (std::size_t s = 0; s < exchange.shells.size(); ++s)
    table.row({std::to_string(s + 1),
               io::format_double(exchange.shells[s].radius, 3),
               std::to_string(exchange.shells[s].bonds),
               io::format_double(1e3 * exchange.shells[s].j, 4)});
  table.print();
  std::printf("fit rms: %.3e Ry over %zu samples\n", exchange.fit_rms,
              opt.samples);
  return 0;
}

int cmd_scaling(const cli::ScalingOptions& opt) {
  const cluster::MachineDescription machine = cluster::jaguar_xt5();
  cluster::JobDescription job;
  job.n_atoms = opt.atoms;
  job.n_walkers = opt.walkers;
  job.steps_per_walker = opt.steps;
  job.fidelity.contour_points = 20;
  const cluster::SimulationResult r = cluster::simulate_wl_lsms(machine, job);

  io::TextTable table({"quantity", "value"});
  table.row({"walkers", std::to_string(r.n_walkers)});
  table.row({"cores", std::to_string(r.cores)});
  table.row({"runtime", io::format_double(r.makespan_s, 1) + " s"});
  table.row({"sustained", io::format_flops(r.sustained_flops)});
  table.row({"fraction of peak",
             io::format_double(100.0 * r.fraction_of_peak, 1) + " %"});
  table.row({"core-hours", io::format_double(r.core_hours, 0)});
  table.print();
  return 0;
}

int cmd_distributed(const cli::DistributedOptions& opt) {
  // Live introspection: the controller has no listener of its own, so the
  // Prometheus endpoint is a background StatusServer over the same framing.
  std::unique_ptr<serve::StatusServer> status_server;
  if (!opt.status_listen.empty()) {
    status_server = std::make_unique<serve::StatusServer>(opt.status_listen);
    std::printf("status endpoint on %s (probe: wlsms status %s)\n",
                status_server->address().c_str(),
                status_server->address().c_str());
    std::fflush(stdout);
  }
  const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(opt.cells), lsms::fe_lsms_parameters_fast());
  const wl::LsmsEnergy energy(solver);
  std::printf("substrate: %zu atoms, %zu-atom LIZ, %zu contour points\n",
              solver->n_atoms(), solver->liz_size(0),
              solver->contour().size());

  comm::EnergyServiceSpec spec;
  spec.kind = comm::ServiceKind::kDistributed;
  spec.energy = &energy;
  spec.distributed.n_groups = opt.groups;
  spec.distributed.group_size = opt.group_size;
  spec.distributed.transport = opt.transport;
  if (opt.transport == comm::Transport::kTcp) {
    spec.distributed.tcp.listen = opt.listen;
    if (opt.external) {
      // External workers: print where to point `wlsms worker` and wait for
      // the operator to start one per rank (possibly on other nodes).
      const std::size_t n_ranks = opt.groups * opt.group_size;
      const std::size_t cells = opt.cells;
      spec.distributed.tcp.spawn_workers = false;
      spec.distributed.tcp.accept_timeout = std::chrono::minutes(10);
      spec.distributed.tcp.on_listening =
          [n_ranks, cells](const std::string& address) {
            std::printf(
                "listening on %s; start %zu workers, e.g.\n"
                "  wlsms worker --connect %s --cells %zu\n",
                address.c_str(), n_ranks, address.c_str(), cells);
            std::fflush(stdout);
          };
    }
  }
  if (opt.speculate.enabled) {
    spec.speculate = true;
    spec.speculation.band = opt.speculate.band;
    spec.speculation.audit_fraction = opt.speculate.audit_fraction;
    spec.speculation.refit_interval = opt.speculate.refit_interval;
    spec.speculation.error_budget = opt.speculate.error_budget;
  }
  const std::unique_ptr<wl::EnergyService> service =
      comm::make_energy_service(spec);

  Rng rng(opt.seed);
  std::vector<spin::MomentConfiguration> configs;
  configs.reserve(opt.evals);
  for (std::size_t k = 0; k < opt.evals; ++k)
    configs.push_back(spin::MomentConfiguration::random(solver->n_atoms(), rng));

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < opt.evals; ++k)
    service->submit({k % opt.groups, k + 1, configs[k]});
  std::vector<double> energies(opt.evals, 0.0);
  for (std::size_t k = 0; k < opt.evals; ++k) {
    const wl::EnergyResult result = service->retrieve();
    energies[result.ticket - 1] = result.energy;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  io::TextTable table({"quantity", "value"});
  table.row({"transport", comm::transport_name(opt.transport)});
  table.row({"worker ranks",
             std::to_string(opt.groups) + " groups x " +
                 std::to_string(opt.group_size)});
  table.row({"evaluations", std::to_string(opt.evals)});
  table.row({"wall time", io::format_double(seconds, 3) + " s"});
  table.row(
      {"evals/s", io::format_double(opt.evals / std::max(seconds, 1e-9), 2)});
  table.print();

  if (opt.check) {
    double max_diff = 0.0;
    for (std::size_t k = 0; k < opt.evals; ++k)
      max_diff = std::max(
          max_diff, std::fabs(energies[k] - energy.total_energy(configs[k])));
    std::printf("max |E_distributed - E_serial| = %.3e Ry%s\n", max_diff,
                max_diff == 0.0 ? " (bit-identical)" : "");
    if (max_diff != 0.0) return 1;
  }

  if (opt.wl_steps > 0) {
    // Short Wang-Landau run over the distributed service (the paper's §IV
    // benchmark schedule) so --metrics-out / --trace-out capture the whole
    // two-level stack: WL acceptance and flatness, comm frame traffic and
    // retrieve latency, and per-kernel flops, in one telemetry stream.
    const std::size_t n = solver->n_atoms();
    const double e_fm =
        solver->energy(spin::MomentConfiguration::ferromagnetic(n));
    double e_rand_max = -1e300;
    for (int k = 0; k < 8; ++k)
      e_rand_max = std::max(
          e_rand_max, solver->energy(spin::MomentConfiguration::random(n, rng)));

    wl::WangLandauConfig wl_config;
    wl_config.grid.e_min = e_fm - 0.002;
    wl_config.grid.e_max = e_rand_max + 0.01;
    wl_config.grid.bins = 64;
    wl_config.grid.kernel_width_fraction = 0.5 / 64.0;
    wl_config.n_walkers = opt.wl_walkers;
    wl_config.max_steps = opt.wl_steps;
    wl_config.check_interval = std::max<std::uint64_t>(opt.wl_steps / 4, 1);

    wl::WlDriver driver(n, *service, wl_config,
                        std::make_unique<wl::HalvingSchedule>(1.0, 1e-8),
                        Rng(opt.seed + 1));
    const wl::DriverStats& stats = driver.run();
    std::printf(
        "WL over distributed service: %llu steps, %llu accepted, "
        "%llu resubmissions\n",
        static_cast<unsigned long long>(stats.total_steps),
        static_cast<unsigned long long>(stats.accepted_steps),
        static_cast<unsigned long long>(stats.resubmissions));
    if (const auto* speculative =
            dynamic_cast<const wl::SpeculativeEnergyService*>(service.get())) {
      const wl::SpeculationStats& spec_stats = speculative->stats();
      std::printf(
          "speculation: %llu proposed, %llu resolved by surrogate "
          "(hit rate %.1f %%), %llu audits, %llu refits, %llu trips; "
          "residual rms %.3e Ry\n",
          static_cast<unsigned long long>(spec_stats.proposed),
          static_cast<unsigned long long>(spec_stats.speculated),
          100.0 * spec_stats.hit_rate(),
          static_cast<unsigned long long>(spec_stats.audits),
          static_cast<unsigned long long>(spec_stats.refits),
          static_cast<unsigned long long>(spec_stats.trips),
          speculative->speculator().residual_rms());
    }
  }
  return 0;
}

/// SIGINT -> Daemon::stop() (a self-pipe write, async-signal-safe).
serve::Daemon* g_serve_daemon = nullptr;

extern "C" void serve_sigint(int) {
  if (g_serve_daemon != nullptr) g_serve_daemon->stop();
}

int cmd_serve(const cli::ServeOptions& opt) {
  serve::ServeOptions serve_options;
  serve_options.listen = opt.listen;
  serve_options.limits.max_pending = opt.max_pending;
  serve_options.limits.max_session_outstanding = opt.max_outstanding;
  serve_options.limits.max_batch = opt.max_batch;
  serve_options.limits.batch_window =
      std::chrono::milliseconds(opt.batch_window_ms);
  serve_options.gemm_batch_threads = opt.batch_threads;
  serve_options.on_listening = [](const std::string& address) {
    std::printf("serving on %s\n", address.c_str());
    std::fflush(stdout);
  };

  const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(opt.cells), lsms::fe_lsms_parameters_fast());
  std::printf("substrate: %zu atoms, %zu-atom LIZ, %zu contour points\n",
              solver->n_atoms(), solver->liz_size(0),
              solver->contour().size());

  serve::Daemon daemon(solver, serve_options);
  g_serve_daemon = &daemon;
  std::signal(SIGINT, serve_sigint);
  std::signal(SIGTERM, serve_sigint);
  daemon.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_daemon = nullptr;

  const serve::BatchScheduler::Stats& stats = daemon.scheduler_stats();
  io::TextTable table({"quantity", "value"});
  table.row({"batches dispatched", std::to_string(stats.batches)});
  table.row({"requests batched", std::to_string(stats.batched_requests)});
  table.row({"requests singleton", std::to_string(stats.singleton_requests)});
  table.print();
  return 0;
}

int cmd_client(const cli::ClientOptions& opt) {
  // Built through the factory like every other service realization; the
  // serve-specific accessors (session, atom count) come back via the
  // concrete type.
  comm::EnergyServiceSpec spec;
  spec.kind = comm::ServiceKind::kServeClient;
  spec.serve_address = opt.connect;
  spec.serve_client.tenant = opt.tenant;
  const std::unique_ptr<wl::EnergyService> service =
      comm::make_energy_service(spec);
  auto& client = dynamic_cast<serve::ServeClient&>(*service);
  std::printf("session %llu as tenant '%s' (%zu atoms served)\n",
              static_cast<unsigned long long>(client.session()),
              opt.tenant.c_str(), client.n_atoms());

  Rng rng(opt.seed);
  std::vector<spin::MomentConfiguration> configs;
  configs.reserve(opt.evals);
  for (std::size_t k = 0; k < opt.evals; ++k)
    configs.push_back(
        spin::MomentConfiguration::random(client.n_atoms(), rng));

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < opt.evals; ++k)
    client.submit({k % opt.walkers, k + 1, configs[k]});
  std::vector<double> energies(opt.evals, 0.0);
  std::size_t failures = 0;
  while (client.outstanding() > 0) {
    const wl::EnergyResult result = client.retrieve();
    if (result.failed)
      ++failures;
    else
      energies[result.ticket - 1] = result.energy;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  io::TextTable table({"quantity", "value"});
  table.row({"evaluations", std::to_string(opt.evals)});
  table.row({"failures/rejects", std::to_string(failures)});
  table.row({"wall time", io::format_double(seconds, 3) + " s"});
  table.row(
      {"evals/s", io::format_double(opt.evals / std::max(seconds, 1e-9), 2)});
  table.print();

  if (opt.check) {
    const lsms::LsmsSolver solver(lattice::make_fe_supercell(opt.cells),
                                  lsms::fe_lsms_parameters_fast());
    if (solver.n_atoms() != client.n_atoms()) {
      std::fprintf(stderr,
                   "client: --cells %zu gives %zu atoms but the daemon "
                   "serves %zu\n",
                   opt.cells, solver.n_atoms(), client.n_atoms());
      return 2;
    }
    double max_diff = 0.0;
    for (std::size_t k = 0; k < opt.evals; ++k)
      max_diff = std::max(max_diff,
                          std::fabs(energies[k] - solver.energy(configs[k])));
    std::printf("max |E_daemon - E_serial| = %.3e Ry%s\n", max_diff,
                max_diff == 0.0 ? " (bit-identical)" : "");
    if (max_diff != 0.0) return 1;
  }
  return 0;
}

int cmd_status(const cli::StatusOptions& opt) {
  const std::string text = serve::fetch_status(
      opt.connect, std::chrono::milliseconds(opt.timeout_ms));
  std::fputs(text.c_str(), stdout);
  return 0;
}

int cmd_worker(const cli::WorkerOptions& opt) {
  // The worker builds its own solver (there is no shared address space over
  // TCP); --cells must match the controller so the zone indices it is sent
  // name the same LIZs.
  const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(opt.cells), lsms::fe_lsms_parameters_fast());
  std::printf("worker: %zu atoms (%zu^3 cells), connecting to %s\n",
              solver->n_atoms(), opt.cells, opt.connect.c_str());
  std::fflush(stdout);

  const std::size_t rank = comm::run_tcp_worker(
      opt.connect, [solver](comm::WorkerChannel& channel) {
        std::printf("worker: joined as rank %zu\n", channel.rank());
        std::fflush(stdout);
        comm::run_shard_worker(channel, solver);
      });
  std::printf("worker: rank %zu done (controller shut down)\n", rank);
  return 0;
}

/// The subcommand bound to its fully parsed and validated options, ready to
/// run; empty for an unknown command.
std::function<int()> parse_command(const cli::Options& options) {
  const std::string& name = options.command();
  if (name == "curie")
    return [opt = cli::CurieOptions::parse(options)] { return cmd_curie(opt); };
  if (name == "thermo")
    return [opt = cli::ThermoOptions::parse(options)] {
      return cmd_thermo(opt);
    };
  if (name == "extract")
    return [opt = cli::ExtractOptions::parse(options)] {
      return cmd_extract(opt);
    };
  if (name == "scaling")
    return [opt = cli::ScalingOptions::parse(options)] {
      return cmd_scaling(opt);
    };
  if (name == "distributed")
    return [opt = cli::DistributedOptions::parse(options)] {
      return cmd_distributed(opt);
    };
  if (name == "worker")
    return [opt = cli::WorkerOptions::parse(options)] {
      return cmd_worker(opt);
    };
  if (name == "serve")
    return [opt = cli::ServeOptions::parse(options)] { return cmd_serve(opt); };
  if (name == "client")
    return [opt = cli::ClientOptions::parse(options)] {
      return cmd_client(opt);
    };
  if (name == "status")
    return [opt = cli::StatusOptions::parse(options)] {
      return cmd_status(opt);
    };
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli::Options options = cli::Options::parse(argc, argv);
    if (options.empty_command()) return usage();

    // Parse the whole stringly map into one validated struct per subcommand,
    // then refuse any flag nothing asked for — all before any work starts
    // (a typo such as --batch-thread must not run a job on defaults). The
    // command bodies never touch raw options.
    const ObsFlags obs_flags = ObsFlags::parse(options);
    const std::function<int()> command = parse_command(options);
    if (!command) {
      std::fprintf(stderr, "unknown command '%s'\n\n",
                   options.command().c_str());
      return usage();
    }
    const std::vector<std::string> unknown = options.unused_keys();
    for (const std::string& key : unknown)
      std::fprintf(stderr, "error: unrecognized option --%s for '%s'\n",
                   key.c_str(), options.command().c_str());
    if (!unknown.empty()) return 2;

    // Label this process's trace file by subcommand, so a merged timeline
    // reads "distributed / worker / serve" instead of three "wlsms" rows.
    obs::set_trace_process_name(options.command());
    const std::unique_ptr<ObsScope> obs_scope = ObsScope::start(obs_flags);
    if (!obs_scope) return 2;
    return command();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
