#pragma once

/// \file joint_wl.hpp
/// Sequential Wang-Landau sampler for the joint density of states g(E, M_z).
/// The flat-histogram walk runs in the (energy, magnetization) plane, which
/// gives direct access to constrained free energies F(M_z; T) — the
/// temperature-dependent switching barriers of the paper's FePt application
/// (refs [14], [15]).

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "spin/moments.hpp"
#include "wl/energy_function.hpp"
#include "wl/engine.hpp"
#include "wl/joint_dos.hpp"
#include "wl/schedule.hpp"

namespace wlsms::wl {

/// Run parameters for the joint estimation.
struct JointWangLandauConfig {
  JointDosConfig grid;
  double flatness = 0.6;  ///< 2-D grids are harder to flatten; default lower
  std::uint64_t check_interval = 2000;
  std::uint64_t max_steps = UINT64_MAX;
  /// Cap on one flatness iteration (0 = 1000 * cells); see
  /// WangLandauConfig::max_iteration_steps.
  std::uint64_t max_iteration_steps = 0;
};

/// Single-walker Wang-Landau estimator of ln g(E, M_z).
class JointWangLandau {
 public:
  JointWangLandau(const EnergyFunction& energy,
                  const JointWangLandauConfig& config,
                  std::unique_ptr<ModificationSchedule> schedule, Rng rng);

  /// Advances one WL step; false once converged or at the step cap.
  bool step();

  /// Runs to convergence (or the cap); returns the stats.
  const WangLandauStats& run();

  bool converged() const { return engine_.schedule().converged(); }
  const JointDos& dos() const { return engine_.grid(); }
  const WangLandauStats& stats() const { return engine_.stats(); }
  const spin::MomentConfiguration& configuration() const { return config_w_; }

 private:
  const EnergyFunction& energy_;
  Engine<JointDos> engine_;
  spin::MomentConfiguration config_w_;
  JointDos::Point at_;  ///< the walker's (E, M_z)
  std::size_t previous_hit_cells_ = 0;
};

}  // namespace wlsms::wl
