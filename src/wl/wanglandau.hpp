#pragma once

/// \file wanglandau.hpp
/// Sequential Wang-Landau sampler: M walkers sharing one density of states,
/// advanced round-robin in a single thread.
///
/// The paper's Algorithm 1 with the energy calculation inlined, as a loop
/// over the Wang-Landau Engine (engine.hpp): the fully converged production
/// runs on the extracted-exchange surrogate (DESIGN.md §2), every REWL
/// window and multimaster master, and the ground truth the master-slave
/// driver (driver.hpp) is validated against. One "WL step" = one trial move
/// = one energy evaluation, matching the step counts of the paper's Table I.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "spin/moments.hpp"
#include "wl/dos_grid.hpp"
#include "wl/energy_function.hpp"
#include "wl/engine.hpp"
#include "wl/schedule.hpp"

namespace wlsms::wl {

/// Run parameters for a Wang-Landau estimation.
struct WangLandauConfig {
  DosGridConfig grid;
  double flatness = 0.80;               ///< the A of eq. 7
  std::uint64_t check_interval = 1000;  ///< steps between flatness checks
  std::uint64_t max_steps = UINT64_MAX; ///< safety cap on total WL steps
  std::size_t n_walkers = 1;            ///< concurrent random walkers
  /// Upper bound on the length of one flatness iteration, in WL steps
  /// (0 = 1000 * bins). Early iterations at large gamma produce a ragged
  /// ln g estimate whose least-accessible bins cannot equilibrate before
  /// gamma shrinks; capping the iteration bounds that transient — a milder
  /// intervention than the 1/t schedule, which abandons flatness entirely.
  /// Iterations that end by cap rather than flatness are counted in
  /// WangLandauStats::forced_iterations.
  std::uint64_t max_iteration_steps = 0;
};

/// Sequential multi-walker Wang-Landau estimator of ln g(E).
class WangLandau {
 public:
  /// `energy` must outlive the sampler. Walkers start from independent
  /// random configurations whose energies must land inside the grid window
  /// (they always do for windows bracketing the model's FM/AFM extremes).
  WangLandau(const EnergyFunction& energy, const WangLandauConfig& config,
             std::unique_ptr<ModificationSchedule> schedule, Rng rng);

  /// As above, but walkers start from the supplied configurations instead
  /// of random draws — required for narrow energy windows (REWL), where a
  /// random configuration almost never lands inside the grid. Supplies one
  /// configuration per walker; each must have its energy inside the window.
  WangLandau(const EnergyFunction& energy, const WangLandauConfig& config,
             std::unique_ptr<ModificationSchedule> schedule, Rng rng,
             const std::vector<spin::MomentConfiguration>& initial_walkers);

  /// Replaces walker w's configuration (e.g. a REWL replica exchange).
  void set_walker(std::size_t w, const spin::MomentConfiguration& config);

  /// Advances every walker by one WL step. Returns false once done
  /// (schedule at its floor or step cap reached).
  bool step();

  /// Runs until convergence or the step cap; returns the stats.
  const WangLandauStats& run();

  bool converged() const { return engine_.schedule().converged(); }
  bool done() const { return engine_.done(); }

  const DosGrid& dos() const { return engine_.grid(); }
  DosGrid& dos() { return engine_.grid(); }
  const WangLandauStats& stats() const { return engine_.stats(); }
  const ModificationSchedule& schedule() const { return engine_.schedule(); }
  std::size_t n_walkers() const { return walkers_.size(); }
  const spin::MomentConfiguration& walker_config(std::size_t w) const;
  double walker_energy(std::size_t w) const;

  /// The sampler's engine (gauge naming and metric flushes of a runner).
  Engine<DosGrid>& engine() { return engine_; }

 private:
  struct Walker {
    spin::MomentConfiguration config;
    double energy = 0.0;
  };

  void advance(Walker& walker);

  const EnergyFunction& energy_;
  Engine<DosGrid> engine_;
  std::vector<Walker> walkers_;
};

/// Convenience: a grid window bracketing a Heisenberg-like model whose
/// minimum is the ferromagnetic energy and maximum is below |E_FM| in
/// magnitude: [E_FM - margin, -E_FM + margin]. The fully antiparallel
/// arrangement bounds the bond sum from above, so -E_FM (no anisotropy) is
/// a rigorous upper bound.
DosGridConfig bracket_heisenberg_window(const HeisenbergEnergy& energy,
                                        std::size_t bins = 301,
                                        double margin_fraction = 0.02);

/// The production window: the energies the canonical ensemble actually
/// occupies for temperatures in [t_min_k, infinity).
///
/// The full [E_FM, E_AFM] range contains two combinatorially inaccessible
/// tails whose density of states is tens to thousands of ln-units below the
/// bulk; no finite walk flattens them, and no temperature of interest
/// weighs them. (The paper's own Table I step counts — 23,200 for 16 atoms
/// — imply its converged support was similarly restricted.) The window is
///
///   [ E_ground + N k_B t_min / 2 ,  mean + n_sigma * sigma )
///
/// with mean/sigma the energy statistics of uniformly random configurations
/// (the T = infinity ensemble), estimated from `samples` draws:
/// the lower edge sits a factor ~2 below the equipartition internal energy
/// U(t_min) ~= E_ground + N k_B t_min, the upper edge n_sigma standard
/// deviations above the infinite-temperature mean.
DosGridConfig thermal_window(const EnergyFunction& energy, double e_ground,
                             double t_min_k, Rng& rng,
                             std::size_t bins = 301, double n_sigma = 4.0,
                             std::size_t samples = 256);

}  // namespace wlsms::wl
