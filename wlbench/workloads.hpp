#pragma once

/// \file workloads.hpp
/// The four seeded, closed-loop Wang-Landau workloads at the paper's LSMS
/// fidelity (65-atom LIZ, 16 contour points), one per service topology.

#include <cstdint>
#include <string>
#include <vector>

namespace wlbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of each measured phase
  bool trace = false;     ///< add a traced phase and report per-layer metrics
  /// Trace runs: Chrome trace_event file of the traced phase's spans
  /// (empty: not written).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::vector<Metric> end_to_end;  ///< from the untraced phase
  /// End-to-end figures printed but kept out of the JSON: failed_frac
  /// (normally 0, so no spread) and status_ms.p90 (its per-layer twin
  /// serve.status_ms.p90 is in the JSON of trace runs).
  std::vector<Metric> printed_only;
  std::vector<Metric> per_layer;   ///< from the traced phase (trace runs)
  std::vector<std::string> notes;  ///< human-readable context lines
  std::vector<std::string> gate_failures;  ///< empty when every gate held
  std::uint64_t attempted = 0;  ///< requests the drivers submitted
  std::uint64_t failed = 0;     ///< failed results + rejects + reroutes
};

/// Names accepted by run_workload, in the order the doc lists them.
const std::vector<std::string>& workload_names();

/// Sets up the workload's topology (several times, for set-up time), runs
/// the timed window, checks the outputs and computes every metric. Throws
/// std::invalid_argument for an unknown workload name.
RunReport run_workload(const RunOptions& options);

}  // namespace wlbench
