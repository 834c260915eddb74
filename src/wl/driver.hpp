#pragma once

/// \file driver.hpp
/// The master process of the paper's two-level parallelization: a single
/// Wang-Landau driver owning the density of states and all walker
/// configurations, feeding trial configurations to an EnergyService and
/// consuming energies as they arrive — possibly out of submission order
/// (§II-C: "this destroys the determinism of the pseudorandom-number
/// sequence ... this has no negative effect on the convergence").
///
/// The driver also implements the resilience behaviour the paper lists as
/// future work (§V): a result flagged `failed` (its instance died) is simply
/// resubmitted, so the random walk survives the loss of processing nodes.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "spin/moments.hpp"
#include "spin/moves.hpp"
#include "wl/dos_grid.hpp"
#include "wl/energy_service.hpp"
#include "wl/engine.hpp"
#include "wl/schedule.hpp"
#include "wl/wanglandau.hpp"

namespace wlsms::wl {

/// Counters of a driver run (`resubmissions` counts failed results re-posted).
using DriverStats = WangLandauStats;

/// Asynchronous master-slave Wang-Landau driver (paper Alg. 1 / Fig. 3).
class WlDriver {
 public:
  /// `service` computes energies for configurations of `n_sites` moments;
  /// the driver keeps exactly one request in flight per walker.
  WlDriver(std::size_t n_sites, EnergyService& service,
           const WangLandauConfig& config,
           std::unique_ptr<ModificationSchedule> schedule, Rng rng);

  /// Runs Algorithm 1 until the schedule converges or the step cap is hit,
  /// then drains outstanding requests so the service is left idle.
  const DriverStats& run();

  const DosGrid& dos() const { return engine_.grid(); }
  const DriverStats& stats() const { return engine_.stats(); }
  const ModificationSchedule& schedule() const { return engine_.schedule(); }
  std::size_t n_walkers() const { return walkers_.size(); }

 private:
  struct Walker {
    spin::MomentConfiguration current;   ///< last accepted configuration
    double energy = 0.0;                 ///< its energy (valid once seeded)
    bool seeded = false;                 ///< initial energy received
    spin::MomentConfiguration trial;     ///< configuration in flight
    spin::TrialMove pending_move;        ///< move that produced `trial`
    std::uint64_t ticket = 0;            ///< ticket of the in-flight request
  };

  /// Proposes a move of walker `w` and submits the trial.
  void submit_trial(std::size_t w);
  /// Posts walker `w`'s `trial` under a fresh ticket (first, new or retry);
  /// once seeded, with the move provenance as its hint.
  void submit(std::size_t w);
  void process(const EnergyResult& result);

  EnergyService& service_;
  Engine<DosGrid> engine_;
  std::vector<Walker> walkers_;
  std::uint64_t next_ticket_ = 1;
};

}  // namespace wlsms::wl
