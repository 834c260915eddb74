#pragma once

/// \file multimaster.hpp
/// Multiple-master Wang-Landau — the scaling extension the paper sketches
/// in its outlook (§V): "for cases where the energy evaluation [is] very
/// fast ... we will try to distribute the work of the master, in order to
/// scale to large numbers of walkers without running into limitations of
/// Amdahl's law."
///
/// Implementation: K masters on identical energy windows, each a persistent
/// WangLandau sampler with its own walkers and HalvingSchedule, advanced on
/// a WindowRunner (rewl.hpp). A gamma level ends when every master has cut
/// gamma once; the ln g estimates are then averaged bin-wise over the union
/// of visited bins and copied back into every master. Averaging independent
/// estimates at equal gamma reduces the variance like 1/K while the walk
/// parallelizes perfectly (bench_ablation_masters). A fixed seed reproduces
/// the run bit for bit.

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "wl/dos_grid.hpp"
#include "wl/energy_function.hpp"
#include "wl/wanglandau.hpp"

namespace wlsms::wl {

/// Result of a multi-master run.
struct MultiMasterResult {
  DosGrid merged_dos;             ///< final merged estimate
  std::vector<WangLandauStats> per_master;
  std::size_t gamma_levels = 0;   ///< levels every master completed
};

/// Merges ln g estimates bin-wise: the merged bin is the mean over the
/// masters that visited it; unvisited-by-all bins stay at zero. Exposed for
/// testing. All grids must share a layout.
DosGrid merge_dos_estimates(const std::vector<const DosGrid*>& estimates);

/// Runs `n_masters` masters until the halving schedule reaches `gamma_final`
/// or a master has taken `max_steps` steps (a whole-run cap). `energy` must
/// be safe for concurrent calls (every backend in this library is: they are
/// logically const).
MultiMasterResult run_multimaster(const EnergyFunction& energy,
                                  const WangLandauConfig& per_master_config,
                                  std::size_t n_masters, double gamma_final,
                                  Rng seed_rng);

}  // namespace wlsms::wl
