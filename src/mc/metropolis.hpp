#pragma once

/// \file metropolis.hpp
/// Conventional Metropolis importance sampling — the baseline the paper
/// contrasts Wang-Landau against (§II-A): efficient at a *single*
/// temperature, trapped by corrugated landscapes, and requiring a separate
/// simulation per temperature, whereas one converged Wang-Landau DOS yields
/// all temperatures at once.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "spin/moments.hpp"
#include "spin/moves.hpp"
#include "wl/energy_function.hpp"

namespace wlsms::mc {

/// Parameters of a single-temperature Metropolis run.
struct MetropolisConfig {
  double temperature_k = 300.0;
  std::uint64_t thermalization_steps = 100000;  ///< discarded burn-in
  std::uint64_t measurement_steps = 1000000;    ///< sampled steps
  std::uint64_t measure_interval = 10;          ///< steps between samples
  /// Cone half-angle for trial moves [rad]; <= 0 selects the paper's
  /// uniform-sphere move instead.
  double cone_half_angle = 0.0;
};

/// Canonical averages from one run.
struct MetropolisResult {
  double temperature = 0.0;        ///< [K]
  double mean_energy = 0.0;        ///< U = <E> [Ry]
  double specific_heat = 0.0;      ///< Var(E)/(k_B T^2) [Ry/K]
  double mean_magnetization = 0.0; ///< <|M|> per site
  double mean_m2 = 0.0;            ///< <m^2>, m the magnetization per site
  double mean_m4 = 0.0;            ///< <m^4>
  double acceptance = 0.0;         ///< accepted / proposed
  std::uint64_t energy_evaluations = 0;
};

/// Runs single-temperature Metropolis on `energy`. The walk starts from
/// `initial` (pass a random configuration for high T, the ferromagnetic one
/// for low T to shorten burn-in). When `final_state` is non-null the chain's
/// last configuration is stored there (for warm-starting a colder run).
MetropolisResult metropolis_run(const wl::EnergyFunction& energy,
                                const spin::MomentConfiguration& initial,
                                const MetropolisConfig& config, Rng& rng,
                                spin::MomentConfiguration* final_state = nullptr);

/// Temperature sweep: one independent Metropolis run per temperature
/// (each seeded from the previous run's final configuration, warm-starting
/// the chain as production codes do). Temperatures are processed in
/// descending order internally and returned in the order given; every one
/// must be positive.
std::vector<MetropolisResult> metropolis_sweep(
    const wl::EnergyFunction& energy, const std::vector<double>& temperatures,
    const MetropolisConfig& base_config, Rng& rng);

}  // namespace wlsms::mc
