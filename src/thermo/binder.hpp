#pragma once

/// \file binder.hpp
/// Binder-cumulant finite-size analysis.
///
/// The paper's §III closes with: "Calculations with 128 and 432 atom cells
/// are currently under way and an estimate [of] the true transition
/// temperature predicted by the WL-LSMS method using the finite size
/// scaling techniques of [Binder & Landau, PRB 30, 1477 (1984)] will be
/// published". This module implements that analysis: the fourth-order
/// magnetization cumulant
///
///   U4(T, L) = 1 - <m^4> / (3 <m^2>^2)
///
/// is size-independent at the critical temperature, so the crossing of
/// U4(T, L1) and U4(T, L2) estimates the bulk Tc free of the leading
/// finite-size shift that moves the specific-heat peaks of Fig. 6.
/// Moments come from the annealed Metropolis sweep of mc/metropolis, one
/// canonical chain per temperature — the natural estimator for fixed-T
/// moments of m.

#include <vector>

#include "common/rng.hpp"
#include "mc/metropolis.hpp"
#include "wl/energy_function.hpp"

namespace wlsms::thermo {

/// Magnetization moments at one temperature for one system size.
struct CumulantPoint {
  double temperature = 0.0;  ///< [K]
  double m2 = 0.0;           ///< <m^2> per site
  double m4 = 0.0;           ///< <m^4> per site
  double binder_u4 = 0.0;    ///< 1 - m4 / (3 m2^2)
};

/// Sampling effort for the cumulant estimation: a Metropolis sweep's
/// config, whose temperature is set per grid point.
using CumulantConfig = mc::MetropolisConfig;

/// Estimates U4(T) over `temperatures` for `energy` by mc::metropolis_sweep
/// (hot to cold, warm-started). Returned in the order given.
std::vector<CumulantPoint> binder_cumulant_sweep(
    const wl::EnergyFunction& energy, const std::vector<double>& temperatures,
    const CumulantConfig& config, Rng& rng);

/// The crossing temperature of two U4(T) curves (same temperature grid):
/// linear interpolation of the sign change of U4_small - U4_large. In the
/// ordered phase U4 -> 2/3 for every size and in the disordered phase the
/// smaller system has the larger U4, so a unique crossing brackets Tc.
/// Returns a negative value when no crossing exists on the grid.
double binder_crossing(const std::vector<CumulantPoint>& small_system,
                       const std::vector<CumulantPoint>& large_system);

}  // namespace wlsms::thermo
