#pragma once

/// \file rewl.hpp
/// Replica-exchange windowed Wang-Landau (REWL).
///
/// The paper's outlook (§V) proposes distributing the master's work to
/// escape Amdahl's law; multimaster.hpp does that with K masters on
/// *identical* energy windows. The proven way to scale the random walk
/// itself is energy-domain decomposition: split the global window into
/// overlapping sub-windows, run independent Wang-Landau walkers per window,
/// and couple adjacent windows with replica-exchange moves, as in Vogel,
/// Li, Wuest & Landau (arXiv:1305.5615) and Perera, Li, Eisenbach et al.
/// (arXiv:1411.4212). A walker confined to a narrow window flattens its
/// histogram far sooner than one diffusing across the whole spectrum, so
/// the decomposition is a genuine algorithmic speedup on top of the
/// parallelism.
///
/// Determinism: each window owns a private Rng stream split from one root
/// seed and is advanced only by its own task between barrier-synchronized
/// rounds; exchanges are performed sequentially on the coordinating thread
/// from a dedicated stream. A fixed root seed therefore reproduces the
/// stitched ln g(E) bit-for-bit regardless of thread scheduling.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "wl/dos_grid.hpp"
#include "wl/energy_function.hpp"
#include "wl/schedule.hpp"
#include "wl/wanglandau.hpp"

namespace wlsms::wl {

/// One energy window of the decomposition, aligned to global grid bins so
/// stitched estimates map bin-for-bin onto the global grid.
struct RewlWindow {
  std::size_t first_bin = 0;  ///< global index of the window's first bin
  std::size_t n_bins = 0;     ///< bins in this window
  DosGridConfig grid;         ///< sub-grid (same bin width as the global grid)
};

/// Run parameters for a replica-exchange windowed run.
struct RewlConfig {
  /// Global grid plus the per-window WL knobs (flatness, check interval,
  /// walkers *per window*, step caps).
  WangLandauConfig base;
  std::size_t n_windows = 2;
  /// Fraction of a window's width shared with each neighbour (Vogel et al.
  /// use 75 %). Larger overlap improves exchange acceptance; smaller
  /// overlap shrinks the windows and accelerates per-window convergence.
  double overlap = 0.75;
  /// WL steps per walker between replica-exchange attempts.
  std::uint64_t exchange_interval = 2000;
  /// Safety cap on barrier rounds (each round is `exchange_interval` steps).
  std::size_t max_rounds = 1000000;
};

/// Result of a replica-exchange windowed run.
struct RewlResult {
  DosGrid stitched;                  ///< global estimate, min ln g = 0
  std::vector<RewlWindow> windows;   ///< the window layout used
  std::vector<DosGrid> window_dos;   ///< per-window final estimates
  std::vector<WangLandauStats> per_window;
  std::uint64_t exchange_attempts = 0;   ///< swaps proposed (both in overlap)
  std::uint64_t exchange_accepts = 0;    ///< swaps accepted
  std::uint64_t exchange_ineligible = 0; ///< proposals outside mutual overlap
  std::size_t rounds = 0;                ///< barrier rounds executed
};

/// Splits `global` into `n_windows` equal-width windows with the requested
/// pairwise overlap fraction, aligned to global bin boundaries. The first
/// window starts at bin 0, the last ends at the final bin, and adjacent
/// windows always share at least two bins (throws ContractError when the
/// grid is too coarse for the requested decomposition). n_windows = 1
/// returns the global grid unchanged.
std::vector<RewlWindow> make_rewl_windows(const DosGridConfig& global,
                                          std::size_t n_windows,
                                          double overlap);

/// Walks a random configuration into the energy band
/// [e_lo + margin, e_hi - margin], margin = `margin_fraction` * (e_hi - e_lo),
/// by greedily accepting single-moment moves that approach the band centre.
/// Deterministic given `rng`; throws ContractError if `max_steps` moves do
/// not reach the band (window outside the model's reachable spectrum).
spin::MomentConfiguration seed_configuration_in_band(
    const EnergyFunction& energy, double e_lo, double e_hi, Rng& rng,
    double margin_fraction = 0.25, std::uint64_t max_steps = 2000000);

/// Stitches per-window ln g estimates into one global grid: window 0 is
/// taken as-is; each later window is joined at the overlap bin where the
/// two windows' log-derivatives d(ln g)/dE agree best, shifted by the
/// additive constant that makes the estimates coincide there (ln g is only
/// defined up to a constant per window). The result is shifted so the
/// minimum over visited bins is zero. Exposed for testing.
DosGrid stitch_window_estimates(const DosGridConfig& global,
                                const std::vector<RewlWindow>& windows,
                                const std::vector<const DosGrid*>& estimates);

/// Runs replica-exchange windowed Wang-Landau: one WangLandau sampler per
/// window (walkers seeded inside the window), `exchange_interval` steps per
/// round on a thread pool, then a deterministic sweep of replica-exchange
/// attempts between adjacent windows with acceptance
///   min(1, g_i(E_i) g_j(E_j) / (g_i(E_j) g_j(E_i))),
/// alternating even/odd pairings per round. Terminates when every window's
/// schedule has converged (or its step cap is hit). `schedule_prototype` is
/// cloned per window. `energy` must be safe for concurrent calls.
RewlResult run_rewl(const EnergyFunction& energy, const RewlConfig& config,
                    const ModificationSchedule& schedule_prototype,
                    Rng root_rng);

}  // namespace wlsms::wl
