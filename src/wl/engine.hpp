#pragma once

/// \file engine.hpp
/// The one Wang-Landau iteration core (paper Algorithm 1). `WangLandau`,
/// `WlDriver` and `JointWangLandau` are thin loops over an Engine: they
/// propose moves and price them; the engine alone checks the run config,
/// applies eq. 5, visits the grid (eqs. 6/8), runs the flatness clock of
/// eq. 7 (check cadence, iteration-step cap, forced cuts, gamma cut,
/// histogram reset), keeps the run statistics and publishes `wl.*`. `Grid`
/// is DosGrid or JointDos; `Grid::Point` is a walker's position on it.

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "spin/moments.hpp"
#include "spin/moves.hpp"
#include "wl/dos_grid.hpp"
#include "wl/joint_dos.hpp"
#include "wl/schedule.hpp"

namespace wlsms::obs {
class Gauge;
}

namespace wlsms::wl {

/// Progress counters of a run.
struct WangLandauStats {
  std::uint64_t total_steps = 0;     ///< trial moves = energy evaluations
  std::uint64_t accepted_steps = 0;
  std::uint64_t out_of_range = 0;    ///< proposals outside the grid window
  std::uint64_t resubmissions = 0;   ///< failed service results re-posted
  std::size_t iterations = 0;        ///< gamma cuts (flat or forced)
  std::size_t forced_iterations = 0; ///< gamma cuts by iteration-step cap
};

template <class Grid>
class Engine {
 public:
  using Point = typename Grid::Point;

  /// Reads the grid and the flatness-clock knobs from `config`; throws
  /// ContractError unless flatness is in (0, 1), check_interval >= 1 and
  /// n_walkers >= 1.
  template <class Config>
  Engine(const Config& config, std::size_t n_walkers,
         std::unique_ptr<ModificationSchedule> schedule, Rng rng)
      : grid_(config.grid),
        schedule_(std::move(schedule)),
        rng_(rng),
        flatness_(config.flatness),
        check_interval_(config.check_interval),
        max_steps_(config.max_steps),
        cap_(config.max_iteration_steps) {
    validate(n_walkers);
  }

  spin::TrialMove propose(const spin::MomentConfiguration& config) {
    return mover_.propose(config, rng_);
  }

  /// Counts one WL step from `from` to the proposed `to` and decides it:
  /// rejected outright outside the grid window, else accepted with
  /// min[1, g(from)/g(to)] (eq. 5). True when accepted.
  bool accept(const Point& from, const Point& to) {
    ++stats_.total_steps;
    if (!grid_.contains(to)) {
      ++stats_.out_of_range;
      return false;
    }
    const double ln_ratio = grid_.ln_g(from) - grid_.ln_g(to);
    if (ln_ratio >= 0.0 || rng_.uniform() < std::exp(ln_ratio)) {
      ++stats_.accepted_steps;
      return true;
    }
    return false;
  }

  /// True when an incrementally tracked position is due for a from-scratch
  /// recomputation, so floating-point drift cannot accumulate.
  bool refresh_due() const { return stats_.total_steps % (1u << 22) == 0; }

  /// Raises ln g and H at the walker's post-decision position, rejected
  /// trials included. A first-time bin visit restarts the flatness clock:
  /// the support grew.
  void visit(const Point& at) {
    if (grid_.visit(at, schedule_->gamma())) grid_.reset_histogram();
    schedule_->on_step(stats_.total_steps);
  }

  /// A chance to check flatness, taken after a batch of visits: the check
  /// fires when total_steps has crossed a multiple of check_interval since
  /// the previous chance, cuts gamma when `is_flat(grid, flatness)` holds or
  /// the iteration hit its step cap, and publishes. True when gamma was cut.
  template <class IsFlat>
  bool chance(IsFlat&& is_flat) {
    const std::uint64_t total = stats_.total_steps;
    if (total < next_check_) return false;
    next_check_ = (total / check_interval_ + 1) * check_interval_;
    bool cut = false;
    {
      const obs::Span span("wl.flatness_check");
      const bool flat = is_flat(static_cast<const Grid&>(grid_), flatness_);
      if (flat || total - iteration_start_ >= cap_) {
        schedule_->on_flat_histogram(total);
        grid_.reset_histogram();
        ++stats_.iterations;
        if (!flat) ++stats_.forced_iterations;
        iteration_start_ = total;
        cut = true;
      }
    }
    publish_metrics();
    return cut;
  }
  bool chance() {
    return chance([](const Grid& grid, double a) { return grid.is_flat(a); });
  }

  /// Converged (schedule at its floor) or at the step cap.
  bool done() const {
    return schedule_->converged() || stats_.total_steps >= max_steps_;
  }

  /// Calls `step` until done, one `wl.sweep` span per check interval, then
  /// publishes the metrics. `step` counts a step or waits for one.
  template <class Step>
  void run(Step&& step) {
    while (!done()) {
      const obs::Span span("wl.sweep");
      const std::uint64_t target = stats_.total_steps + check_interval_;
      do step();
      while (!done() && stats_.total_steps < target);
    }
    publish_metrics();
  }

  /// Adds the counts since the last publish to the `wl.*` counters and sets
  /// the acceptance-rate, flatness-ratio and ln f gauges.
  void publish_metrics();
  /// Names the gauges `wl.<gauge><suffix>` (".window<k>" for a runner's
  /// windows and masters, so each keeps its own series).
  void set_gauge_suffix(const std::string& suffix);

  void note_resubmission() { ++stats_.resubmissions; }

  Rng& rng() { return rng_; }
  const Grid& grid() const { return grid_; }
  Grid& grid() { return grid_; }
  const ModificationSchedule& schedule() const { return *schedule_; }
  const WangLandauStats& stats() const { return stats_; }

 private:
  void validate(std::size_t n_walkers);

  Grid grid_;
  std::unique_ptr<ModificationSchedule> schedule_;
  Rng rng_;
  spin::UniformSphereMove mover_;
  double flatness_;
  std::uint64_t check_interval_;
  std::uint64_t max_steps_;
  std::uint64_t cap_;                  ///< iteration-step cap (resolved)
  WangLandauStats stats_;
  std::uint64_t next_check_ = 0;       ///< next multiple of check_interval
  std::uint64_t iteration_start_ = 0;  ///< total_steps at the last cut
  WangLandauStats published_;          ///< counts already in the registry
  obs::Gauge* acceptance_rate_ = nullptr;
  obs::Gauge* flatness_ratio_ = nullptr;
  obs::Gauge* ln_f_ = nullptr;
};

}  // namespace wlsms::wl
