#include "workloads.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "comm/factory.hpp"
#include "lattice/structure.hpp"
#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/status.hpp"
#include "wl/driver.hpp"
#include "wl/schedule.hpp"
#include "wl/speculator.hpp"

namespace wlbench {

namespace {

namespace comm = wlsms::comm;
namespace lsms = wlsms::lsms;
namespace obs = wlsms::obs;
namespace perf = wlsms::perf;
namespace serve = wlsms::serve;
namespace wl = wlsms::wl;
using wlsms::Rng;

constexpr std::size_t kWalkers = 4;
/// Set-ups per run; setup_s is their median (the last one is measured).
constexpr std::size_t kSetupReps = 5;
/// fe16_speculative: WL steps after which DriverStats + ln g are digested.
constexpr std::uint64_t kDigestSteps = 48;
/// fe16_speculative: audited-residual error budget [Ry].
constexpr double kErrorBudget = 2e-3;
constexpr std::chrono::milliseconds kStatusInterval{100};
constexpr std::size_t kTraceRing = std::size_t{1} << 16;
/// Layer accounting of fe16_speculative must close within this share of the
/// timed wall.
constexpr double kLedgerTolerance = 0.05;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::string fmt(const char* format, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// ---- workload inputs ------------------------------------------------------

std::shared_ptr<const lsms::LsmsSolver> make_solver(std::size_t cells) {
  return std::make_shared<const lsms::LsmsSolver>(
      wlsms::lattice::make_fe_supercell(cells), lsms::fe_lsms_parameters());
}

/// Wang-Landau settings of every workload: 4 walkers on a 64-bin window
/// [E_fm - 0.25 |E_fm|, E_fm + 1.25 |E_fm|] around the ferromagnetic energy,
/// with iterations capped at 400 steps so gamma keeps falling during a run.
/// Every walker's random start must land inside the window. At this
/// fidelity random 16-atom configurations reach from 3 % below E_fm to 73 %
/// above it (9000 draws; 250 atoms: 16-19 % above), so the window keeps a
/// wide margin on both sides.
wl::WangLandauConfig wl_config(std::size_t cells) {
  const auto solver = make_solver(cells);
  const double e_fm = solver->energy(
      wlsms::spin::MomentConfiguration::ferromagnetic(solver->n_atoms()));
  wl::WangLandauConfig config;
  config.grid.e_min = e_fm - 0.25 * std::abs(e_fm);
  config.grid.e_max = e_fm + 1.25 * std::abs(e_fm);
  config.grid.bins = 64;
  config.grid.kernel_width_fraction = 0.5 / 64.0;
  config.n_walkers = kWalkers;
  config.check_interval = 100;
  config.max_iteration_steps = 400;
  return config;
}

std::unique_ptr<wl::ModificationSchedule> schedule() {
  return std::make_unique<wl::HalvingSchedule>(1.0, 1e-8);
}

/// The speculator of bench_speculation: band 1.5, 5 % audits, refit every
/// 32 measurements, 4 shells, 2e-3 Ry budget, warm-started from the
/// reference exchange at the Curie calibration scale.
wl::SpeculationConfig speculation_config() {
  wl::SpeculationConfig config;
  config.band = 1.5;
  config.audit_fraction = 0.05;
  config.refit_interval = 32;
  config.error_budget = kErrorBudget;
  config.n_shells = 4;
  std::vector<double> j = lsms::fe_reference_exchange();
  for (double& v : j) v *= lsms::fe_exchange_energy_scale;
  config.initial_j = std::move(j);
  return config;
}

/// FNV-1a over the driver's counters, ln g and histogram.
std::uint64_t driver_digest(const wl::WlDriver& driver) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  const wl::DriverStats& s = driver.stats();
  const std::uint64_t fields[] = {
      s.total_steps, s.accepted_steps, s.out_of_range, s.resubmissions,
      static_cast<std::uint64_t>(s.iterations),
      static_cast<std::uint64_t>(s.forced_iterations)};
  mix(fields, sizeof(fields));
  const std::vector<double>& ln_g = driver.dos().ln_g_values();
  mix(ln_g.data(), ln_g.size() * sizeof(double));
  const std::vector<std::uint64_t>& hist = driver.dos().histogram();
  mix(hist.data(), hist.size() * sizeof(std::uint64_t));
  return h;
}

void run_driver(wl::WlDriver& driver) {
  try {
    driver.run();
  } catch (const WindowClosed&) {
  }
}

void drain(wl::EnergyService& service) {
  while (service.outstanding() > 0) (void)service.retrieve();
}

// ---- measurement ledger ---------------------------------------------------

/// The program's own counters at every window boundary.
struct Snapshots {
  std::array<obs::MetricsSnapshot, kMaxPhases + 1> registry;
  std::array<std::array<std::uint64_t, perf::kKernelCount>, kMaxPhases + 1>
      flops{};

  void take(std::size_t k) {
    registry[k] = obs::Registry::instance().snapshot();
    for (std::size_t j = 0; j < perf::kKernelCount; ++j)
      flops[k][j] = perf::total_flops(static_cast<perf::Kernel>(j));
  }
  std::uint64_t counter(std::size_t k, const std::string& name) const {
    auto it = registry[k].counters.find(name);
    return it == registry[k].counters.end() ? 0 : it->second;
  }
  std::uint64_t counter_delta(std::size_t p, const std::string& name) const {
    return counter(p + 1, name) - counter(p, name);
  }
  double histogram_p50(std::size_t p, const std::string& name) const {
    auto a = registry[p].histograms.find(name);
    auto b = registry[p + 1].histograms.find(name);
    if (b == registry[p + 1].histograms.end()) return 0.0;
    return histogram_quantile(a == registry[p].histograms.end()
                                  ? obs::HistogramSnapshot{}
                                  : a->second,
                              b->second, 0.5);
  }
};

/// Everything the timed window measured, per phase, summed over drivers.
struct Measured {
  std::size_t phases = 1;
  std::size_t drivers = 1;
  std::array<double, kMaxPhases> wall{};
  std::array<std::uint64_t, kMaxPhases> steps{}, submitted{}, driver_failed{};
  std::array<double, kMaxPhases> driver_service_s{}, driver_blocked_s{};
  std::array<std::uint64_t, kMaxPhases> exact{};
  std::array<double, kMaxPhases> exact_service_s{};
  std::array<std::vector<double>, kMaxPhases> eval_ms, status_ms;
  std::array<std::uint64_t, kMaxPhases> lsms_calls{};
  std::array<double, kMaxPhases> lsms_s{};
  /// Flops of the phase's evaluations per kernel, and the wall time inside
  /// the solver calls that retired them, over `solver_threads` threads.
  std::array<std::array<std::uint64_t, perf::kKernelCount>, kMaxPhases> flops{};
  std::array<double, kMaxPhases> solver_s{};
  double solver_threads = 1.0;
  std::uint64_t flops_per_zone = 1;
  std::size_t member_order = 128;
  Snapshots snaps;
  std::vector<double> setups;
  std::uint64_t accepted = 0, total_steps = 0, iterations = 0;
  std::uint64_t status_failures = 0;
  /// Workload-specific per-layer values of the last phase (spec.*,
  /// serve.*, comm.*, ...); every other per-layer metric reads 0 here.
  std::map<std::string, double> layer;
  /// Span durations [s] in the traced phase, by name.
  std::map<std::string, double> span_s;
  RunReport report;

  std::size_t last() const { return phases - 1; }

  void absorb(const DriverBoundary& b) {
    for (std::size_t p = 0; p < phases; ++p) {
      steps[p] += b.steps[p];
      submitted[p] += b.submitted[p];
      driver_failed[p] += b.failed[p];
      driver_service_s[p] += static_cast<double>(b.service_ns[p]) * 1e-9;
      driver_blocked_s[p] += static_cast<double>(b.blocked_ns[p]) * 1e-9;
    }
  }
  void absorb(const ExactBoundary& b) {
    for (std::size_t p = 0; p < phases; ++p) {
      exact[p] += b.results[p];
      exact_service_s[p] += static_cast<double>(b.service_ns[p]) * 1e-9;
    }
    for (const LatencySample& s : b.latencies())
      eval_ms[static_cast<std::size_t>(s.phase)].push_back(s.ms());
  }
  void absorb(const TimedEnergy& e) {
    for (std::size_t p = 0; p < phases; ++p) {
      lsms_calls[p] += e.calls[p];
      lsms_s[p] += static_cast<double>(e.ns[p]) * 1e-9;
    }
  }
  void absorb(const wl::DriverStats& s) {
    accepted += s.accepted_steps;
    total_steps += s.total_steps;
    iterations += s.iterations;
  }
  void absorb_window(const Window& window) {
    for (std::size_t p = 0; p < phases; ++p) wall[p] = window.phase_seconds(p);
  }
  /// In-process solves: the phase's flops are the global counter deltas.
  void use_global_flops() {
    for (std::size_t p = 0; p < phases; ++p)
      for (std::size_t j = 0; j < perf::kKernelCount; ++j)
        flops[p][j] = snaps.flops[p + 1][j] - snaps.flops[p][j];
  }
  void recheck(const lsms::LsmsSolver& solver,
               const std::vector<EnergySample>& samples) {
    std::size_t mismatches = 0;
    for (const EnergySample& s : samples)
      if (solver.energies(s.config).total != s.energy) ++mismatches;
    report.notes.push_back("recheck: " + std::to_string(samples.size()) +
                           " returned energies recomputed with "
                           "LsmsSolver::energies, " +
                           std::to_string(mismatches) + " differ");
    if (samples.empty())
      report.gate_failures.push_back("recheck: no energy sampled in window");
    if (mismatches > 0)
      report.gate_failures.push_back("recheck: returned energies differ "
                                     "from LsmsSolver::energies");
  }
};

/// Snapshots the program's counters at every boundary and, in a trace run,
/// turns span recording on for the last phase only.
void install_hooks(Window& window, Measured& m, bool trace,
                   std::function<void(std::size_t)> extra = {}) {
  window.on_boundary = [&m, trace, extra = std::move(extra),
                        phases = window.phases()](std::size_t k) {
    if (trace && k == phases) obs::disable_tracing();
    m.snaps.take(k);
    if (extra) extra(k);
    if (trace && k + 1 == phases) obs::enable_tracing(kTraceRing);
  };
}

/// Sums the traced phase's span durations by name and, when asked, writes
/// them out as a Chrome trace (Perfetto-loadable).
void collect_spans(Measured& m, const RunOptions& options) {
  if (!options.trace_out.empty()) {
    obs::write_chrome_trace(options.trace_out);
    m.report.notes.push_back("spans written to " + options.trace_out);
  }
  for (const obs::TraceEvent& e : obs::collect_trace_events())
    m.span_s[e.name] += static_cast<double>(e.dur_us) * 1e-6;
  if (obs::dropped_trace_events() > 0)
    m.report.notes.push_back("trace: " +
                             std::to_string(obs::dropped_trace_events()) +
                             " span events dropped");
}

/// Single-thread packed ZGEMM rate [GFlop/s] over the trailing updates of a
/// blocked LU of the zone's member matrix (order `n`, the solver's panel
/// width): the GEMM shapes one zone solve runs.
double zgemm_zone_rate(std::size_t n) {
  using wlsms::linalg::Complex;
  const std::size_t nb = wlsms::linalg::kLuBlockSize;
  std::vector<Complex> a(n * nb), b(nb * n), c(n * n);
  Rng rng(99);
  for (Complex& v : a) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (Complex& v : b) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::uint64_t flops = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (std::size_t m = n - nb; m >= nb; m -= nb) {
      wlsms::linalg::zgemm_view(m, m, nb, Complex{-1.0, 0.0}, a.data(), n,
                                b.data(), nb, Complex{1.0, 0.0}, c.data(), n);
      flops += perf::cost::zgemm(m, m, nb);
    }
  } while (seconds(Clock::now() - t0) < 0.3);
  return static_cast<double>(flops) / seconds(Clock::now() - t0) / 1e9;
}

// ---- metrics ----------------------------------------------------------------

const std::vector<std::pair<const char*, const char*>>& per_layer_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"wl.driver_us_per_step", "us"},
      {"wl.wait_ms_per_step", "ms"},
      {"wl.acceptance_rate", "ratio"},
      {"wl.iterations", "count"},
      {"spec.hit_rate", "ratio"},
      {"spec.exact_calls_per_step", "ratio"},
      {"spec.screen_us_per_proposal", "us"},
      {"spec.residual_rms_ry", "Ry"},
      {"serve.batch_occupancy", "count"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.solve_ms.p50", "ms"},
      {"serve.deliver_ms.p50", "ms"},
      {"serve.wire_ms.p50", "ms"},
      {"serve.status_ms.p90", "ms"},
      {"comm.frames_per_eval", "count"},
      {"comm.bytes_per_eval", "B"},
      {"comm.delta_scatter_frac", "ratio"},
      {"comm.group_wait_ms_per_eval", "ms"},
      {"comm.overhead_ms_per_eval", "ms"},
      {"lsms.eval_ms", "ms"},
      {"lsms.t_table_ms_per_eval", "ms"},
      {"lsms.zone_solves_per_step", "count"},
      {"perf.gflop_per_step", "GFlop"},
      {"linalg.gemm_frac", "ratio"},
      {"linalg.panel_frac", "ratio"},
      {"linalg.trsm_frac", "ratio"},
      {"linalg.achieved_gflops", "GFlop/s"},
      {"linalg.rate_vs_zgemm_peak", "ratio"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return units;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Fills the report from the measurements: end-to-end metrics from the
/// untraced phase 0, per-layer metrics from the last phase.
void finish(Measured& m, const RunOptions& options, bool ledger_gate) {
  RunReport& r = m.report;
  const std::size_t p0 = 0;
  const double wall0 = m.wall[p0];
  const double steps0 = static_cast<double>(m.steps[p0]);

  std::uint64_t rejects = 0, reroutes = 0, submitted = 0, failed_results = 0;
  for (std::size_t p = 0; p < m.phases; ++p) {
    rejects += m.snaps.counter_delta(p, "serve.rejects_queue_full") +
               m.snaps.counter_delta(p, "serve.rejects_quota");
    reroutes += m.snaps.counter_delta(p, "comm.reroutes");
    submitted += m.submitted[p];
    failed_results += m.driver_failed[p];
  }
  r.attempted = std::max<std::uint64_t>(submitted, 1);
  r.failed = failed_results + rejects + reroutes;
  if (m.steps[p0] == 0)
    r.gate_failures.push_back("no WL step completed in the timed window");

  const std::vector<double>& lat = m.eval_ms[p0];
  const std::vector<double>& status = m.status_ms[p0];
  r.end_to_end = {
      {"wl_steps_per_s", ratio(steps0, wall0), "steps/s"},
      {"exact_evals_per_s", ratio(static_cast<double>(m.exact[p0]), wall0),
       "evals/s"},
      {"eval_ms.p50", quantile(lat, 0.5), "ms"},
      {"eval_ms.p90", quantile(lat, 0.9), "ms"},
      {"setup_s", median(m.setups), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  r.notes.push_back(
      "timed wall " + fmt("%.3f s", wall0) + ", " +
      std::to_string(m.steps[p0]) + " WL steps, " +
      std::to_string(m.exact[p0]) + " exact evaluations, " +
      std::to_string(m.drivers) + " driver(s) x " +
      std::to_string(kWalkers) + " walkers");
  const std::size_t tail = count_above(lat, 0.9);
  r.notes.push_back("eval_ms: " + std::to_string(lat.size()) + " samples, " +
                    std::to_string(tail) + " above p90" +
                    (tail < 10 ? " (fewer than 10: p90 is a coarse estimate "
                                 "at this run length)"
                               : ""));
  r.notes.push_back("status_ms: " + std::to_string(status.size()) +
                    " probes, " + std::to_string(count_above(status, 0.9)) +
                    " above p90, " + std::to_string(m.status_failures) +
                    " failed");
  std::string setups = "setup_s repetitions:";
  for (double s : m.setups) setups += fmt(" %.4f", s);
  r.notes.push_back(setups);
  r.printed_only = {
      {"failed_frac",
       ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
       "ratio"},
      {"status_ms.p90", quantile(status, 0.9), "ms"},
  };
  r.notes.push_back("failed: " + std::to_string(failed_results) +
                    " failed results, " + std::to_string(rejects) +
                    " serve rejects, " + std::to_string(reroutes) +
                    " reroutes");

  if (!options.trace) return;

  // ---- per-layer, from the traced phase.
  const std::size_t pl = m.last();
  const double wall = m.wall[pl];
  const double steps = static_cast<double>(m.steps[pl]);
  const double exact = static_cast<double>(m.exact[pl]);
  const double drivers = static_cast<double>(m.drivers);
  std::uint64_t flops_total = 0;
  for (std::uint64_t f : m.flops[pl]) flops_total += f;
  const double flops = static_cast<double>(flops_total);
  const auto kernel = [&](perf::Kernel k) {
    return static_cast<double>(m.flops[pl][static_cast<std::size_t>(k)]);
  };
  const double achieved = ratio(flops, m.solver_s[pl]) / 1e9;
  double peak = 0.0;
  if (achieved > 0.0) peak = zgemm_zone_rate(m.member_order);

  std::map<std::string, double> v = m.layer;
  v["wl.driver_us_per_step"] =
      ratio(drivers * wall - m.driver_service_s[pl], steps) * 1e6;
  v["wl.wait_ms_per_step"] = ratio(m.driver_blocked_s[pl], steps) * 1e3;
  v["wl.acceptance_rate"] = ratio(static_cast<double>(m.accepted),
                                  static_cast<double>(m.total_steps));
  v["wl.iterations"] = static_cast<double>(m.iterations);
  v["serve.status_ms.p90"] = quantile(m.status_ms[pl], 0.9);
  if (m.lsms_calls[pl] > 0)
    v["lsms.eval_ms"] =
        ratio(m.lsms_s[pl], static_cast<double>(m.lsms_calls[pl])) * 1e3;
  v["lsms.t_table_ms_per_eval"] =
      ratio(m.span_s["lsms.t_table_refresh"], exact) * 1e3;
  v["lsms.zone_solves_per_step"] =
      ratio(flops, static_cast<double>(m.flops_per_zone)) / std::max(steps, 1.0);
  v["perf.gflop_per_step"] = ratio(flops, steps) / 1e9;
  v["linalg.gemm_frac"] = ratio(kernel(perf::Kernel::kZgemm), flops);
  v["linalg.panel_frac"] = ratio(kernel(perf::Kernel::kPanel), flops);
  v["linalg.trsm_frac"] = ratio(kernel(perf::Kernel::kTrsm), flops);
  v["linalg.achieved_gflops"] = achieved;
  v["linalg.rate_vs_zgemm_peak"] = ratio(achieved, m.solver_threads * peak);
  v["obs.trace_overhead_frac"] =
      1.0 - ratio(ratio(steps, wall), ratio(steps0, wall0));
  for (const auto& [name, unit] : per_layer_units())
    r.per_layer.push_back({name, v.count(name) ? v[name] : 0.0, unit});

  r.notes.push_back("traced phase: " + fmt("%.3f s", wall) + ", " +
                    std::to_string(m.steps[pl]) + " WL steps, " +
                    std::to_string(m.exact[pl]) + " exact evaluations");
  if (peak > 0.0)
    r.notes.push_back("zgemm zone-shape rate (1 thread, order " +
                      std::to_string(m.member_order) + "): " +
                      fmt("%.2f GFlop/s", peak) + ", solver threads " +
                      fmt("%.0f", m.solver_threads));

  if (ledger_gate) {
    // wall = driver self + screen + exact service; exact service = lsms +
    // unattributed. The unattributed share is the ledger's residual.
    const double self = drivers * wall - m.driver_service_s[pl];
    const double screen = m.driver_service_s[pl] - m.exact_service_s[pl];
    const double residual = drivers * wall - self - screen - m.lsms_s[pl];
    const double frac = ratio(residual, drivers * wall);
    r.notes.push_back("layer ledger: wall " + fmt("%.4f s", wall) +
                      " = driver self " + fmt("%.4f", self) + " + screen " +
                      fmt("%.4f", screen) + " + lsms " +
                      fmt("%.4f", m.lsms_s[pl]) + " + residual " +
                      fmt("%.4f", residual) + fmt(" (%.2f %%)", 100.0 * frac));
    if (std::abs(frac) > kLedgerTolerance)
      r.gate_failures.push_back("layer ledger residual " +
                                fmt("%.2f %%", 100.0 * frac) +
                                " exceeds 5 % of the timed wall");
  }
}

std::size_t n_phases(const RunOptions& options) {
  return options.trace ? 2 : 1;
}

// ---- fe16_speculative -----------------------------------------------------

/// The Heisenberg speculator in front of `exact`.
std::unique_ptr<wl::SpeculativeEnergyService> speculate_over(
    std::unique_ptr<wl::EnergyService> exact, const lsms::LsmsSolver& solver) {
  return std::make_unique<wl::SpeculativeEnergyService>(
      std::move(exact),
      wl::Speculator(solver.structure(), speculation_config()));
}

/// 16-atom bcc Fe, WlDriver with 4 walkers; the Heisenberg speculator
/// screens the driver's proposals in front of make_energy_service
/// (kSynchronous), whose OpenMP zone loop runs over nproc threads.
RunReport run_fe16_speculative(const RunOptions& options) {
  constexpr std::size_t kCells = 2;
  const wl::WangLandauConfig config = wl_config(kCells);
  Measured m;
  m.phases = n_phases(options);
  m.solver_threads = static_cast<double>(omp_get_max_threads());

  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const bool final_rep = rep + 1 == kSetupReps;
    Window window(1, m.phases, options.seconds, !final_rep);
    const Clock::time_point start = Clock::now();

    const auto solver = make_solver(kCells);
    const wl::LsmsEnergy energy(solver);
    const TimedEnergy timed(energy, window);
    comm::EnergyServiceSpec spec;
    spec.kind = comm::ServiceKind::kSynchronous;
    spec.energy = &timed;
    auto exact_owned = std::make_unique<ExactBoundary>(
        comm::make_energy_service(spec), window, 48, 4);
    ExactBoundary& exact = *exact_owned;
    auto speculative_owned = speculate_over(std::move(exact_owned), *solver);
    wl::SpeculativeEnergyService& speculative = *speculative_owned;
    DriverBoundary boundary(std::move(speculative_owned), kWalkers, window);
    const serve::StatusServer status("127.0.0.1:0");
    wl::WlDriver driver(solver->n_atoms(), boundary, config, schedule(),
                        Rng(options.seed));
    // The driver only attaches its DosGrid to a speculator it is handed
    // directly; this one sits behind the boundary decorator.
    speculative.attach_dos(&driver.dos());

    if (!final_rep) {
      run_driver(driver);
      m.setups.push_back(seconds(window.t(0) - start));
      continue;
    }

    std::array<wl::SpeculationStats, kMaxPhases + 1> spec_at{};
    install_hooks(window, m, options.trace,
                  [&](std::size_t k) { spec_at[k] = speculative.stats(); });
    std::optional<std::uint64_t> digest;
    boundary.on_retrieve = [&] {
      if (!digest && driver.stats().total_steps == kDigestSteps)
        digest = driver_digest(driver);
    };
    StatusProber prober(status.address(), window, kStatusInterval);
    run_driver(driver);
    m.setups.push_back(seconds(window.t(0) - start));
    drain(boundary.inner());
    m.status_ms = prober.finish();
    m.status_failures = prober.failures();
    if (!window.closed())
      throw std::runtime_error("driver stopped before the window closed");

    m.absorb_window(window);
    m.absorb(boundary);
    m.absorb(exact);
    m.absorb(timed);
    m.absorb(driver.stats());
    m.use_global_flops();
    for (std::size_t p = 0; p < m.phases; ++p) m.solver_s[p] = m.lsms_s[p];
    m.flops_per_zone = solver->flops_per_zone_energy(0);
    m.member_order = 2 * (solver->liz_size(0) - 1);
    if (options.trace) collect_spans(m, options);
    m.recheck(*solver, exact.samples());

    const wl::SpeculationStats& s = speculative.stats();
    const double residual = speculative.speculator().residual_rms();
    const std::size_t pl = m.last();
    const wl::SpeculationStats& a = spec_at[pl];
    const wl::SpeculationStats& b = spec_at[pl + 1];
    const double proposed = static_cast<double>(b.proposed - a.proposed);
    m.layer["spec.hit_rate"] =
        ratio(static_cast<double>(b.speculated - a.speculated), proposed);
    m.layer["spec.exact_calls_per_step"] = ratio(
        static_cast<double>(m.exact[pl]), static_cast<double>(m.steps[pl]));
    m.layer["spec.screen_us_per_proposal"] =
        ratio(m.driver_service_s[pl] - m.exact_service_s[pl], proposed) * 1e6;
    m.layer["spec.residual_rms_ry"] = residual;
    const std::uint64_t roles = s.speculated + s.audits + s.boundary_exact +
                                s.warmup_exact + s.tripped_exact;
    m.report.notes.push_back(
        "speculator: " + std::to_string(s.proposed) + " proposed = " +
        std::to_string(s.speculated) + " speculated + " +
        std::to_string(s.audits) + " audits + " +
        std::to_string(s.boundary_exact) + " boundary + " +
        std::to_string(s.warmup_exact) + " warmup + " +
        std::to_string(s.tripped_exact) + " tripped; hit rate " +
        fmt("%.4f", s.hit_rate()) + ", residual rms " +
        fmt("%.3e Ry", residual) + fmt(" (budget %.1e)", kErrorBudget));
    if (roles != s.proposed)
      m.report.gate_failures.push_back(
          "speculator role ledger does not balance");
    // Over budget the speculator must not be ready to resolve proposals
    // (tripped to exact-only, or refilling its window): no proposal may be
    // resolved by a surrogate that misses the budget.
    if (residual > kErrorBudget && speculative.speculator().ready())
      m.report.gate_failures.push_back(
          "audited residual rms exceeds the error budget while the "
          "speculator still resolves proposals");

    // Replay the same seed through the same stack without the benchmark's
    // decorators; the driver's state after kDigestSteps steps must be
    // bit-identical.
    Window replay_window(1, 1, 3600.0, false);
    const wl::LsmsEnergy replay_energy(solver);
    comm::EnergyServiceSpec replay_spec;
    replay_spec.energy = &replay_energy;
    auto replay_owned =
        speculate_over(comm::make_energy_service(replay_spec), *solver);
    wl::SpeculativeEnergyService& replay_speculative = *replay_owned;
    DriverBoundary replay(std::move(replay_owned), kWalkers, replay_window);
    wl::WlDriver replay_driver(solver->n_atoms(), replay, config, schedule(),
                               Rng(options.seed));
    replay_speculative.attach_dos(&replay_driver.dos());
    std::optional<std::uint64_t> replayed;
    replay.on_retrieve = [&] {
      if (replay_driver.stats().total_steps == kDigestSteps) {
        replayed = driver_digest(replay_driver);
        throw WindowClosed{};
      }
    };
    run_driver(replay_driver);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest.value_or(0)));
    m.report.notes.push_back(
        "digest of DriverStats + ln g after " + std::to_string(kDigestSteps) +
        " steps: " + hex +
        (digest == replayed ? " (replay identical)" : " (replay DIFFERS)"));
    if (!digest)
      m.report.gate_failures.push_back("digest step not reached in window");
    else if (digest != replayed)
      m.report.gate_failures.push_back(
          "same-seed replay digest differs (DriverStats + ln g)");
  }
  finish(m, options, /*ledger_gate=*/true);
  return std::move(m.report);
}

// ---- fe250_distributed --------------------------------------------------

/// 250-atom bcc Fe (5x5x5), WlDriver with 4 walkers over the distributed
/// service: 2 groups x 2 ranks on the TCP loopback transport. The ranks are
/// forked by the benchmark and dial the controller like external
/// `wlsms worker --connect` processes, so each can be measured around its
/// channel.
RunReport run_fe250(const RunOptions& options) {
  constexpr std::size_t kCells = 5;
  constexpr std::size_t kGroups = 2;
  constexpr std::size_t kGroupSize = 2;
  const wl::WangLandauConfig config = wl_config(kCells);
  Measured m;
  m.phases = n_phases(options);
  m.solver_threads = 1.0;  // rank-seconds: every rank solves serially

  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const bool final_rep = rep + 1 == kSetupReps;
    Window window(1, m.phases, options.seconds, !final_rep);
    const Clock::time_point start = Clock::now();

    const auto solver = make_solver(kCells);
    const wl::LsmsEnergy energy(solver);
    RankFleet fleet;
    comm::EnergyServiceSpec spec;
    spec.kind = comm::ServiceKind::kDistributed;
    spec.energy = &energy;
    spec.distributed.n_groups = kGroups;
    spec.distributed.group_size = kGroupSize;
    spec.distributed.transport = comm::Transport::kTcp;
    spec.distributed.tcp.spawn_workers = false;
    spec.distributed.tcp.on_listening = [&](const std::string& address) {
      fleet.spawn(kGroups * kGroupSize, address, solver);
    };
    auto exact_owned = std::make_unique<ExactBoundary>(
        comm::make_energy_service(spec), window, 16, 3);
    ExactBoundary& exact = *exact_owned;
    auto boundary = std::make_unique<DriverBoundary>(std::move(exact_owned),
                                                     kWalkers, window);
    const serve::StatusServer status("127.0.0.1:0");
    auto driver = std::make_unique<wl::WlDriver>(
        solver->n_atoms(), *boundary, config, schedule(), Rng(options.seed));

    if (!final_rep) {
      run_driver(*driver);
      m.setups.push_back(seconds(window.t(0) - start));
      continue;  // the fleet's destructor kills and reaps the ranks
    }

    install_hooks(window, m, options.trace);
    StatusProber prober(status.address(), window, kStatusInterval);
    run_driver(*driver);
    m.setups.push_back(seconds(window.t(0) - start));
    drain(boundary->inner());
    m.status_ms = prober.finish();
    m.status_failures = prober.failures();
    if (!window.closed())
      throw std::runtime_error("driver stopped before the window closed");

    m.absorb_window(window);
    m.absorb(*boundary);
    m.absorb(exact);
    m.absorb(driver->stats());
    const std::vector<LatencySample> latencies = exact.latencies();
    const std::vector<EnergySample> samples = exact.samples();
    driver.reset();
    boundary.reset();  // shuts the controller down; idle ranks see EOF
    if (!fleet.collect())
      m.report.gate_failures.push_back("a worker rank failed");
    if (options.trace) collect_spans(m, options);

    // Join the ranks' records with the controller-side latencies.
    std::map<std::uint64_t, std::vector<const RankRecord*>> by_ticket;
    for (const RankRecord& r : fleet.records())
      by_ticket[r.ticket].push_back(&r);
    std::array<double, kMaxPhases> group_wait{}, overhead{}, slowest{};
    for (const LatencySample& s : latencies) {
      const auto it = by_ticket.find(s.ticket);
      if (it == by_ticket.end()) continue;
      const auto p = static_cast<std::size_t>(s.phase);
      std::int64_t first_recv = s.result_ns;
      std::int64_t slow = 0;
      for (const RankRecord* r : it->second) {
        first_recv = std::min(first_recv, r->recv_ns);
        slow = std::max(slow, r->send_ns - r->recv_ns);
        m.solver_s[p] += static_cast<double>(r->send_ns - r->recv_ns) * 1e-9;
        for (std::size_t j = 0; j < perf::kKernelCount; ++j)
          m.flops[p][j] += r->flops[j];
      }
      group_wait[p] += static_cast<double>(first_recv - s.submit_ns) * 1e-6;
      overhead[p] +=
          static_cast<double>(s.result_ns - first_recv - slow) * 1e-6;
      slowest[p] += static_cast<double>(slow) * 1e-6;
    }
    m.flops_per_zone = solver->flops_per_zone_energy(0);
    m.member_order = 2 * (solver->liz_size(0) - 1);

    const std::size_t pl = m.last();
    const double evals = static_cast<double>(m.exact[pl]);
    m.layer["comm.frames_per_eval"] =
        ratio(static_cast<double>(
                  m.snaps.counter_delta(pl, "comm.frames_sent") +
                  m.snaps.counter_delta(pl, "comm.frames_received")),
              evals);
    m.layer["comm.bytes_per_eval"] =
        ratio(static_cast<double>(
                  m.snaps.counter_delta(pl, "comm.bytes_sent") +
                  m.snaps.counter_delta(pl, "comm.bytes_received")),
              evals);
    const double full =
        static_cast<double>(m.snaps.counter_delta(pl, "comm.full_scatters"));
    const double delta =
        static_cast<double>(m.snaps.counter_delta(pl, "comm.delta_scatters"));
    m.layer["comm.delta_scatter_frac"] = ratio(delta, full + delta);
    m.layer["comm.group_wait_ms_per_eval"] = ratio(group_wait[pl], evals);
    m.layer["comm.overhead_ms_per_eval"] = ratio(overhead[pl], evals);
    m.layer["lsms.eval_ms"] = ratio(slowest[pl], evals);
    // Recheck only now: the ranks are gone, so OpenMP may run.
    m.recheck(*solver, samples);
  }
  finish(m, options, /*ledger_gate=*/false);
  return std::move(m.report);
}

// ---- fe16_serve -----------------------------------------------------------

/// One tenant session: a thread with its own ServeClient and WlDriver.
struct Tenant {
  std::string name;
  std::unique_ptr<DriverBoundary> boundary;
  ExactBoundary* exact = nullptr;
  std::unique_ptr<wl::WlDriver> driver;
  std::string error;
};

void run_tenant(Tenant& tenant, const std::string& address, Window& window,
                const wl::WangLandauConfig& config, std::size_t n_atoms,
                std::uint64_t seed, bool measure) {
  try {
    serve::ClientOptions client;
    client.tenant = tenant.name;
    auto exact = std::make_unique<ExactBoundary>(
        std::make_unique<serve::ServeClient>(address, client), window, 24, 2);
    tenant.exact = exact.get();
    tenant.boundary =
        std::make_unique<DriverBoundary>(std::move(exact), kWalkers, window);
    tenant.driver = std::make_unique<wl::WlDriver>(
        n_atoms, *tenant.boundary, config, schedule(), Rng(seed));
    run_driver(*tenant.driver);
    if (measure) drain(tenant.boundary->inner());
  } catch (const std::exception& e) {
    tenant.error = e.what();
    window.abort();
  }
}

/// In-process `wlsms serve` daemon on loopback TCP with the CLI defaults
/// (max_batch 16, 5 ms window, batch_threads 0), two tenant sessions of 4
/// walkers each, status probed on the daemon port.
RunReport run_fe16_serve(const RunOptions& options) {
  constexpr std::size_t kCells = 2;
  constexpr std::size_t kTenants = 2;
  const wl::WangLandauConfig config = wl_config(kCells);
  Measured m;
  m.phases = n_phases(options);
  m.drivers = kTenants;
  m.solver_threads = 1.0;  // the daemon solves batches on its poll thread

  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const bool final_rep = rep + 1 == kSetupReps;
    Window window(kTenants, m.phases, options.seconds, !final_rep);
    const Clock::time_point start = Clock::now();

    const auto solver = make_solver(kCells);
    serve::ServeOptions serve_options;
    serve_options.listen = "127.0.0.1:0";
    serve_options.limits.max_batch = 16;
    serve_options.limits.batch_window = std::chrono::milliseconds(5);
    serve_options.gemm_batch_threads = 0;
    serve::Daemon daemon(solver, serve_options);
    std::string daemon_error;
    std::thread daemon_thread([&] {
      try {
        daemon.run();
      } catch (const std::exception& e) {
        daemon_error = e.what();
        window.abort();
      }
    });
    if (final_rep) install_hooks(window, m, options.trace);

    std::array<Tenant, kTenants> tenants;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kTenants; ++t) {
      tenants[t].name = "tenant-" + std::to_string(t);
      const std::uint64_t seed =
          options.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1));
      threads.emplace_back(run_tenant, std::ref(tenants[t]),
                           std::cref(daemon.address()), std::ref(window),
                           std::cref(config), solver->n_atoms(), seed,
                           final_rep);
    }
    std::optional<StatusProber> prober;
    if (final_rep) prober.emplace(daemon.address(), window, kStatusInterval);
    for (std::thread& t : threads) t.join();
    if (prober) {
      m.status_ms = prober->finish();
      m.status_failures = prober->failures();
    }
    std::string errors;
    for (const Tenant& t : tenants)
      if (!t.error.empty()) errors += t.name + ": " + t.error + "; ";
    const bool measured = final_rep && errors.empty() && window.closed();
    std::vector<EnergySample> samples;
    if (measured) {
      m.absorb_window(window);
      for (const Tenant& t : tenants) {
        m.absorb(*t.boundary);
        m.absorb(*t.exact);
        m.absorb(t.driver->stats());
        samples.insert(samples.end(), t.exact->samples().begin(),
                       t.exact->samples().end());
      }
    }
    for (Tenant& t : tenants) {
      t.driver.reset();
      t.boundary.reset();
    }
    daemon.stop();
    daemon_thread.join();
    if (!errors.empty() || !daemon_error.empty())
      throw std::runtime_error("serve workload failed: " + errors +
                               daemon_error);
    if (final_rep && !measured)
      throw std::runtime_error("tenants stopped before the window closed");
    m.setups.push_back(seconds(window.t(0) - start));
    if (!final_rep) continue;

    m.use_global_flops();
    m.flops_per_zone = solver->flops_per_zone_energy(0);
    m.member_order = 2 * (solver->liz_size(0) - 1);
    if (options.trace) collect_spans(m, options);
    const std::size_t pl = m.last();
    m.solver_s[pl] = m.span_s["lsms.batch_energies"];
    m.layer["serve.batch_occupancy"] =
        ratio(static_cast<double>(m.snaps.counter_delta(pl, "serve.accepted")),
              static_cast<double>(m.snaps.counter_delta(pl, "serve.batches")));
    m.layer["serve.queue_wait_ms.p50"] =
        m.snaps.histogram_p50(pl, "serve.stage_ms.queue_wait");
    m.layer["serve.solve_ms.p50"] =
        m.snaps.histogram_p50(pl, "serve.stage_ms.solve");
    m.layer["serve.deliver_ms.p50"] =
        m.snaps.histogram_p50(pl, "serve.stage_ms.deliver");
    m.layer["serve.wire_ms.p50"] =
        m.snaps.histogram_p50(pl, "serve.client.wire_ms");
    m.layer["lsms.eval_ms"] =
        ratio(m.span_s["lsms.batch_energies"],
              static_cast<double>(m.exact[pl])) *
        1e3;
    m.recheck(*solver, samples);
  }
  finish(m, options, /*ledger_gate=*/false);
  return std::move(m.report);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fe250_distributed", "fe16_serve", "fe16_speculative"};
  return names;
}

RunReport run_workload(const RunOptions& options) {
  if (options.workload == "fe16_speculative")
    return run_fe16_speculative(options);
  if (options.workload == "fe250_distributed") return run_fe250(options);
  if (options.workload == "fe16_serve") return run_fe16_serve(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace wlbench
