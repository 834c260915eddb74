#include "thermo/binder.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace wlsms::thermo {

std::vector<CumulantPoint> binder_cumulant_sweep(
    const wl::EnergyFunction& energy, const std::vector<double>& temperatures,
    const CumulantConfig& config, Rng& rng) {
  std::vector<CumulantPoint> points;
  for (const mc::MetropolisResult& run :
       mc::metropolis_sweep(energy, temperatures, config, rng))
    points.push_back({run.temperature, run.mean_m2, run.mean_m4,
                      1.0 - run.mean_m4 / (3.0 * run.mean_m2 * run.mean_m2)});
  return points;
}

double binder_crossing(const std::vector<CumulantPoint>& small_system,
                       const std::vector<CumulantPoint>& large_system) {
  WLSMS_EXPECTS(small_system.size() == large_system.size());
  WLSMS_EXPECTS(small_system.size() >= 2);

  // Work on the temperature-sorted difference d(T) = U4_small - U4_large.
  std::vector<std::size_t> order(small_system.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return small_system[a].temperature < small_system[b].temperature;
  });

  for (std::size_t k = 1; k < order.size(); ++k) {
    const CumulantPoint& s0 = small_system[order[k - 1]];
    const CumulantPoint& s1 = small_system[order[k]];
    const CumulantPoint& l0 = large_system[order[k - 1]];
    const CumulantPoint& l1 = large_system[order[k]];
    WLSMS_EXPECTS(s0.temperature == l0.temperature);
    const double d0 = s0.binder_u4 - l0.binder_u4;
    const double d1 = s1.binder_u4 - l1.binder_u4;
    if (d0 == 0.0) return s0.temperature;
    if (d0 < 0.0 && d1 >= 0.0) {
      // Linear interpolation of the sign change.
      const double frac = d0 / (d0 - d1);
      return s0.temperature + frac * (s1.temperature - s0.temperature);
    }
  }
  return -1.0;
}

}  // namespace wlsms::thermo
