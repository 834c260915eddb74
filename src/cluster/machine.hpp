#pragma once

/// \file machine.hpp
/// Machine description for the discrete-event cluster simulator.
///
/// The paper's numbers come from the Cray XT5 partition of Jaguar at ORNL:
/// quad-core AMD Opterons at 2.3 GHz (9.2 GFlop/s peak per core), two
/// sockets per node, and a measured sustained fraction of 75.8 % of peak
/// for the WL-LSMS hot loop (Table II). A workstation has a handful of
/// cores, not the paper's 147,464, so the scaling section of the paper is
/// reproduced by simulation against this description (DESIGN.md §2,
/// substitution 3).

#include <cstddef>

namespace wlsms::cluster {

/// Hardware and runtime parameters of the simulated machine.
struct MachineDescription {
  double peak_flops_per_core = 9.2e9;   ///< 2.3 GHz Opteron, 4 flops/cycle
  /// Fraction of peak the LSMS dense-complex kernel sustains on one core;
  /// the paper measures 75.8 % (Table II).
  double sustained_fraction = 0.758;
  std::size_t cores_per_node = 8;       ///< two quad-core sockets
  /// One-way message latency, seconds (SeaStar2+ interconnect scale).
  double message_latency_s = 8e-6;
  /// Master service time per received result: acceptance test, DOS update,
  /// next trial generation, send. Measured from the real driver on this
  /// host by bench_fig7's calibration step; the default is a conservative
  /// Opteron-era value.
  double master_service_time_s = 20e-6;
  /// Job setup time before the first energy evaluation starts (paper §IV:
  /// "the setup time of the calculations remains the same if the runs were
  /// longer").
  double setup_time_s = 60.0;

  /// Sustained per-core evaluation rate [flops/s].
  double sustained_flops_per_core() const {
    return peak_flops_per_core * sustained_fraction;
  }
};

/// The Cray XT5 "jaguarpf" partition the paper ran on.
inline MachineDescription jaguar_xt5() { return MachineDescription{}; }

}  // namespace wlsms::cluster
