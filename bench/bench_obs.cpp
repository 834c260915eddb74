// Observability overhead audit: the full telemetry stack (metrics registry,
// span tracing, 100 ms snapshot writer) against the uninstrumented baseline
// on the paper-geometry energy evaluation, plus per-operation latencies of
// the primitives. The instrumentation budget is <2% of wall time — the
// telemetry must be cheap enough to leave on for production runs.
//
// Writes BENCH_obs.json (path = argv[1], default ./BENCH_obs.json) and
// exits non-zero if the measured overhead exceeds the budget.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "io/table.hpp"
#include "lsms/solver.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "spin/moments.hpp"

namespace {

using namespace wlsms;

constexpr std::size_t kEvalsPerRep = 60;
constexpr std::size_t kReps = 80;
constexpr double kBudgetPercent = 2.0;

/// Wall seconds of each evaluation in one repetition of the workload:
/// kEvalsPerRep full energy evaluations of random moment configurations.
/// When `stamped`, each evaluation additionally pays the full
/// distributed-tracing tax a request pays in production: the driver's
/// context capture (propagated on the wire), the scheduler's six
/// critical-path stage stamps, and the daemon's per-request span emission.
std::vector<double> run_workload(const lsms::LsmsSolver& solver, Rng& rng,
                                 bool stamped = false) {
  double sink = 0.0;
  std::vector<double> seconds;
  seconds.reserve(kEvalsPerRep);
  for (std::size_t k = 0; k < kEvalsPerRep; ++k) {
    perf::Timer timer;
    obs::TraceContext context;
    std::uint64_t begin_us = 0;
    if (stamped) {
      context = obs::current_trace_context();
      begin_us = obs::trace_now_us();
    }
    sink += solver.energy(
        spin::MomentConfiguration::random(solver.n_atoms(), rng));
    if (stamped) {
      // admitted / queued / batch-formed / solved / serialized / sent.
      std::uint64_t last = begin_us;
      for (int stage = 0; stage < 6; ++stage) last = obs::trace_now_us();
      obs::emit_span("bench.request", begin_us, last, context);
    }
    seconds.push_back(timer.seconds());
  }
  // Keep the optimizer honest.
  if (sink == 0.1234567) std::printf("%f\n", sink);
  return seconds;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// ns per operation of `op` iterated `iterations` times.
template <typename Op>
double op_latency_ns(std::size_t iterations, Op&& op) {
  perf::Timer timer;
  for (std::size_t i = 0; i < iterations; ++i) op();
  return 1e9 * timer.seconds() / static_cast<double>(iterations);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  bench::banner("telemetry overhead (metrics + tracing + snapshots)",
                "kernel-counter style instrumentation must not perturb the "
                "measured science: budget <2% of energy-evaluation wall");

  // The paper-geometry substrate of bench_direct_wllsms: 16-atom bcc Fe
  // cell, 15-atom LIZ, reduced contour — the real multiple-scattering
  // energy path the WL driver hammers.
  const lsms::LsmsSolver solver(lattice::make_fe_supercell(2),
                                lsms::fe_lsms_parameters_fast());
  std::printf("workload: %zu evals x %zu reps of %zu-atom energies "
              "(%zu-atom LIZ)\n\n",
              kEvalsPerRep, kReps, solver.n_atoms(), solver.liz_size(0));

  obs::disable_tracing();
  {
    // Warm-up: touch caches, fault in the t-table, settle the clock.
    Rng rng(11);
    (void)run_workload(solver, rng);
  }

  // Each repetition runs the same kEvalsPerRep configurations (one seed)
  // once uninstrumented and once instrumented, so evaluation k of one arm
  // pairs with evaluation k of the other, about one repetition (~12 ms)
  // apart. The overhead is the median over all kReps * kEvalsPerRep pairs
  // of the instrumented/uninstrumented time ratio: pairing cancels host
  // load that drifts slower than a repetition, and the median ignores the
  // pairs in which a preempted OpenMP thread stalled one side. Which arm
  // runs second shifts the ratio by 1-2 % on a shared 4-vCPU host, so the
  // arms take turns going first. (Min-of-reps per arm, the earlier
  // estimate, hangs on the one luckiest repetition of each arm; on that
  // host it read -8 % ... +8 % for one unchanged binary.)
  std::vector<double> base_eval_s;
  std::vector<double> instr_eval_s;
  std::vector<double> ratios;
  const std::string snapshot_path = out_path + ".snapshots.jsonl";
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    const bool base_first = rep % 2 == 0;
    std::vector<double> base;
    std::vector<double> instr;
    if (base_first) {
      Rng rng(42 + rep);
      base = run_workload(solver, rng);
    }
    {
      obs::enable_tracing();
      obs::SnapshotConfig config;
      config.path = snapshot_path;
      config.interval = std::chrono::milliseconds(100);
      obs::SnapshotWriter writer(config);
      Rng rng(42 + rep);
      instr = run_workload(solver, rng, true);
      obs::disable_tracing();
      obs::reset_trace_for_testing();
    }
    if (!base_first) {
      Rng rng(42 + rep);
      base = run_workload(solver, rng);
    }
    for (std::size_t k = 0; k < kEvalsPerRep; ++k)
      ratios.push_back(instr[k] / base[k]);
    base_eval_s.insert(base_eval_s.end(), base.begin(), base.end());
    instr_eval_s.insert(instr_eval_s.end(), instr.begin(), instr.end());
  }
  const double base_s = median(base_eval_s);
  const double instr_s = median(instr_eval_s);
  const double overhead_percent = 100.0 * (median(ratios) - 1.0);

  // Primitive latencies, the per-call costs the budget is built from.
  obs::Counter& counter = obs::Registry::instance().counter("bench.counter");
  obs::Gauge& gauge = obs::Registry::instance().gauge("bench.gauge");
  obs::Histogram& histogram = obs::Registry::instance().histogram(
      "bench.histogram", {1.0, 10.0, 100.0, 1000.0});
  constexpr std::size_t kOps = 2000000;
  const double counter_ns = op_latency_ns(kOps, [&] { counter.inc(); });
  const double gauge_ns = op_latency_ns(kOps, [&] { gauge.set(0.5); });
  const double histogram_ns =
      op_latency_ns(kOps, [&] { histogram.observe(42.0); });
  const double span_disabled_ns =
      op_latency_ns(kOps, [] { const obs::Span span("bench.span"); });
  obs::enable_tracing();
  const double span_enabled_ns =
      op_latency_ns(200000, [] { const obs::Span span("bench.span"); });
  // The distributed-tracing primitives added by the propagation layer:
  // context capture (what the driver stamps onto every outgoing request),
  // remote-parent adoption (what the worker/daemon pays per request),
  // stage stamping (six per request in the serve scheduler), and
  // retrospective span emission (one per request on the daemon).
  const double context_ns =
      op_latency_ns(200000, [] { (void)obs::current_trace_context(); });
  const obs::TraceContext remote{0x123456789ull, 0x42ull};
  const double span_adopt_ns = op_latency_ns(
      200000, [&] { const obs::Span span("bench.adopt", remote); });
  const double stamp_ns =
      op_latency_ns(kOps, [] { (void)obs::trace_now_us(); });
  const double emit_span_ns = op_latency_ns(200000, [&] {
    obs::emit_span("bench.emit", 1000, 2000, remote);
  });
  obs::disable_tracing();
  obs::reset_trace_for_testing();

  io::TextTable table({"quantity", "value"});
  table.row({"uninstrumented eval (median)",
             io::format_double(1e6 * base_s, 1) + " us"});
  table.row({"instrumented eval (median)",
             io::format_double(1e6 * instr_s, 1) + " us"});
  table.row({"overhead (paired median)",
             io::format_double(overhead_percent, 2) + " %"});
  table.row({"budget", io::format_double(kBudgetPercent, 1) + " %"});
  table.row({"counter add", io::format_double(counter_ns, 1) + " ns"});
  table.row({"gauge set", io::format_double(gauge_ns, 1) + " ns"});
  table.row({"histogram observe", io::format_double(histogram_ns, 1) + " ns"});
  table.row({"span (disabled)", io::format_double(span_disabled_ns, 1) + " ns"});
  table.row({"span (enabled)", io::format_double(span_enabled_ns, 1) + " ns"});
  table.row({"context capture", io::format_double(context_ns, 1) + " ns"});
  table.row({"span (adopted)", io::format_double(span_adopt_ns, 1) + " ns"});
  table.row({"stage stamp", io::format_double(stamp_ns, 1) + " ns"});
  table.row({"emit span", io::format_double(emit_span_ns, 1) + " ns"});
  table.print();

  obs::JsonValue::Object ops;
  ops.emplace("counter_add", obs::JsonValue(counter_ns));
  ops.emplace("gauge_set", obs::JsonValue(gauge_ns));
  ops.emplace("histogram_observe", obs::JsonValue(histogram_ns));
  ops.emplace("span_disabled", obs::JsonValue(span_disabled_ns));
  ops.emplace("span_enabled", obs::JsonValue(span_enabled_ns));
  ops.emplace("context_capture", obs::JsonValue(context_ns));
  ops.emplace("span_adopted", obs::JsonValue(span_adopt_ns));
  ops.emplace("stage_stamp", obs::JsonValue(stamp_ns));
  ops.emplace("emit_span", obs::JsonValue(emit_span_ns));

  obs::JsonValue::Object workload;
  workload.emplace("atoms",
                   obs::JsonValue(std::uint64_t{solver.n_atoms()}));
  workload.emplace("evals_per_rep", obs::JsonValue(std::uint64_t{kEvalsPerRep}));
  workload.emplace("reps", obs::JsonValue(std::uint64_t{kReps}));

  obs::JsonValue::Object doc;
  doc.emplace("bench", obs::JsonValue(std::string("obs_overhead")));
  doc.emplace("workload", obs::JsonValue(std::move(workload)));
  doc.emplace("uninstrumented_eval_s", obs::JsonValue(base_s));
  doc.emplace("instrumented_eval_s", obs::JsonValue(instr_s));
  doc.emplace("overhead_percent", obs::JsonValue(overhead_percent));
  doc.emplace("budget_percent", obs::JsonValue(kBudgetPercent));
  doc.emplace("within_budget",
              obs::JsonValue(overhead_percent <= kBudgetPercent));
  doc.emplace("op_latency_ns", obs::JsonValue(std::move(ops)));

  std::FILE* file = std::fopen(out_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  const std::string text = obs::JsonValue(std::move(doc)).dump() + "\n";
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  std::printf("\nresults written to %s\n", out_path.c_str());

  if (overhead_percent > kBudgetPercent) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead %.2f%% exceeds the %.1f%% budget\n",
                 overhead_percent, kBudgetPercent);
    return 1;
  }
  std::printf("telemetry overhead %.2f%% is within the %.1f%% budget\n",
              overhead_percent, kBudgetPercent);
  return 0;
}
