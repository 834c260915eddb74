// wl_e2e: one seeded, closed-loop Wang-Landau workload at the paper's LSMS
// fidelity through one service topology, timed for a fixed window.
//
//   wl_e2e --workload fe16_serve --seed 1 --seconds 25 --trace 0
//          [--trace-out FILE]
//
// Prints human-readable context, a metric table, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (which adds a
// traced phase after the untraced one; --trace-out writes that phase's
// spans as a Chrome trace). Exits 1 when a correctness gate fails (the JSON
// still reports correct=false) and 2 on a usage or runtime error (no JSON).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: wl_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:");
  for (const std::string& name : wlbench::workload_names())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, wlbench::RunOptions& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty();
}

void print_json(const wlbench::RunReport& report, bool trace) {
  const auto& metrics = trace ? report.per_layer : report.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.gate_failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  wlbench::RunOptions options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  wlbench::RunReport report;
  try {
    report = wlbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wl_e2e: %s\n", e.what());
    return 2;
  }

  std::printf("workload %s, seed %llu, %.3g s per phase, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes)
    std::printf("  %s\n", note.c_str());
  std::printf("end-to-end (untraced phase):\n");
  for (const wlbench::Metric& m : report.end_to_end)
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const wlbench::Metric& m : report.printed_only)
    std::printf("  %-30s %16.6f %s (printed only)\n", m.name.c_str(),
                m.value, m.unit.c_str());
  if (options.trace) {
    std::printf("per-layer (traced phase):\n");
    for (const wlbench::Metric& m : report.per_layer)
      std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }
  for (const std::string& failure : report.gate_failures)
    std::printf("GATE FAILED: %s\n", failure.c_str());
  std::fflush(stdout);
  print_json(report, options.trace);
  return report.gate_failures.empty() ? 0 : 1;
}
