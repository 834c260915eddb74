#include "mc/metropolis.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace wlsms::mc {

MetropolisResult metropolis_run(const wl::EnergyFunction& energy,
                                const spin::MomentConfiguration& initial,
                                const MetropolisConfig& config, Rng& rng,
                                spin::MomentConfiguration* final_state) {
  WLSMS_EXPECTS(config.temperature_k > 0.0);
  WLSMS_EXPECTS(initial.size() == energy.n_sites());
  WLSMS_EXPECTS(config.measure_interval >= 1);

  const double beta = units::beta_from_kelvin(config.temperature_k);
  spin::MomentConfiguration state = initial;
  double e = energy.total_energy(state);

  const spin::UniformSphereMove sphere_move;
  const bool use_cone = config.cone_half_angle > 0.0;
  const spin::ConeMove cone_move(use_cone ? config.cone_half_angle : 0.5);

  std::uint64_t accepted = 0;
  std::uint64_t evaluations = 1;  // the initial total energy
  double sum_e = 0.0;
  double sum_e2 = 0.0;
  double sum_m = 0.0;
  double sum_m2 = 0.0;
  double sum_m4 = 0.0;
  std::uint64_t samples = 0;

  const std::uint64_t total =
      config.thermalization_steps + config.measurement_steps;
  for (std::uint64_t step = 0; step < total; ++step) {
    const spin::TrialMove move = use_cone ? cone_move.propose(state, rng)
                                          : sphere_move.propose(state, rng);
    const double e_new = energy.energy_after_move(state, move, e);
    ++evaluations;
    const double delta = e_new - e;
    // Metropolis rule, eq. 2: accept with min[1, exp(-beta dE)].
    if (delta <= 0.0 || rng.uniform() < std::exp(-beta * delta)) {
      state.set(move.site, move.new_direction);
      e = e_new;
      ++accepted;
    }
    if (step >= config.thermalization_steps &&
        (step - config.thermalization_steps) % config.measure_interval == 0) {
      const double m = state.magnetization();
      const double m2 = m * m;
      sum_e += e;
      sum_e2 += e * e;
      sum_m += m;
      sum_m2 += m2;
      sum_m4 += m2 * m2;
      ++samples;
    }
    // Guard against floating-point drift of the incrementally updated E.
    if ((step & ((1u << 22) - 1)) == 0) e = energy.total_energy(state);
  }

  MetropolisResult result;
  result.temperature = config.temperature_k;
  WLSMS_ENSURES(samples > 0);
  const double mean_e = sum_e / static_cast<double>(samples);
  const double mean_e2 = sum_e2 / static_cast<double>(samples);
  result.mean_energy = mean_e;
  result.specific_heat =
      std::max(0.0, mean_e2 - mean_e * mean_e) /
      (units::k_boltzmann_ry * config.temperature_k * config.temperature_k);
  result.mean_magnetization = sum_m / static_cast<double>(samples);
  result.mean_m2 = sum_m2 / static_cast<double>(samples);
  result.mean_m4 = sum_m4 / static_cast<double>(samples);
  result.acceptance = static_cast<double>(accepted) / static_cast<double>(total);
  result.energy_evaluations = evaluations;
  if (final_state) *final_state = state;
  return result;
}

std::vector<MetropolisResult> metropolis_sweep(
    const wl::EnergyFunction& energy, const std::vector<double>& temperatures,
    const MetropolisConfig& base_config, Rng& rng) {
  WLSMS_EXPECTS(!temperatures.empty());
  for (double t : temperatures) WLSMS_EXPECTS(t > 0.0);

  // Process hot to cold so each chain warm-starts from the previous one
  // (annealing), then restore the caller's ordering.
  std::vector<std::size_t> order(temperatures.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return temperatures[a] > temperatures[b];
  });

  std::vector<MetropolisResult> results(temperatures.size());
  spin::MomentConfiguration state =
      spin::MomentConfiguration::random(energy.n_sites(), rng);
  for (std::size_t i : order) {
    MetropolisConfig config = base_config;
    config.temperature_k = temperatures[i];
    results[i] = metropolis_run(energy, state, config, rng, &state);
  }
  return results;
}

}  // namespace wlsms::mc
