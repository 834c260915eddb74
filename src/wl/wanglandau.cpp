#include "wl/wanglandau.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace wlsms::wl {

WangLandau::WangLandau(const EnergyFunction& energy,
                       const WangLandauConfig& config,
                       std::unique_ptr<ModificationSchedule> schedule, Rng rng)
    : energy_(energy),
      engine_(config, config.n_walkers, std::move(schedule), rng),
      walkers_(config.n_walkers) {
  for (std::size_t w = 0; w < walkers_.size(); ++w)
    set_walker(w, spin::MomentConfiguration::random(energy_.n_sites(),
                                                    engine_.rng()));
}

WangLandau::WangLandau(const EnergyFunction& energy,
                       const WangLandauConfig& config,
                       std::unique_ptr<ModificationSchedule> schedule, Rng rng,
                       const std::vector<spin::MomentConfiguration>&
                           initial_walkers)
    : energy_(energy),
      engine_(config, config.n_walkers, std::move(schedule), rng),
      walkers_(config.n_walkers) {
  WLSMS_EXPECTS(initial_walkers.size() == config.n_walkers);
  for (std::size_t w = 0; w < walkers_.size(); ++w)
    set_walker(w, initial_walkers[w]);
}

void WangLandau::set_walker(std::size_t w,
                            const spin::MomentConfiguration& config) {
  WLSMS_EXPECTS(w < walkers_.size());
  WLSMS_EXPECTS(config.size() == energy_.n_sites());
  walkers_[w] = {config, energy_.total_energy(config)};
  WLSMS_EXPECTS(dos().contains(walkers_[w].energy));
}

void WangLandau::advance(Walker& walker) {
  const spin::TrialMove move = engine_.propose(walker.config);
  const double e_new =
      energy_.energy_after_move(walker.config, move, walker.energy);
  if (engine_.accept(walker.energy, e_new)) {
    walker.config.set(move.site, move.new_direction);
    walker.energy = e_new;
  }
  if (engine_.refresh_due())
    walker.energy = energy_.total_energy(walker.config);
  engine_.visit(walker.energy);
}

bool WangLandau::step() {
  if (engine_.done()) return false;
  for (Walker& walker : walkers_) advance(walker);
  engine_.chance();
  return !engine_.done();
}

const WangLandauStats& WangLandau::run() {
  engine_.run([this] { step(); });
  return stats();
}

const spin::MomentConfiguration& WangLandau::walker_config(
    std::size_t w) const {
  WLSMS_EXPECTS(w < walkers_.size());
  return walkers_[w].config;
}

double WangLandau::walker_energy(std::size_t w) const {
  WLSMS_EXPECTS(w < walkers_.size());
  return walkers_[w].energy;
}

DosGridConfig thermal_window(const EnergyFunction& energy, double e_ground,
                             double t_min_k, Rng& rng, std::size_t bins,
                             double n_sigma, std::size_t samples) {
  WLSMS_EXPECTS(t_min_k > 0.0);
  WLSMS_EXPECTS(n_sigma > 0.0);
  WLSMS_EXPECTS(samples >= 16);

  double sum = 0.0;
  double sum2 = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const double e = energy.total_energy(
        spin::MomentConfiguration::random(energy.n_sites(), rng));
    sum += e;
    sum2 += e * e;
  }
  const double mean = sum / static_cast<double>(samples);
  const double var =
      std::max(0.0, sum2 / static_cast<double>(samples) - mean * mean);
  const double sigma = std::sqrt(var);

  DosGridConfig grid;
  grid.e_min = e_ground + 0.5 * static_cast<double>(energy.n_sites()) *
                              units::k_boltzmann_ry * t_min_k;
  grid.e_max = mean + n_sigma * sigma;
  grid.bins = bins;
  WLSMS_ENSURES(grid.e_max > grid.e_min);
  return grid;
}

DosGridConfig bracket_heisenberg_window(const HeisenbergEnergy& energy,
                                        std::size_t bins,
                                        double margin_fraction) {
  const double e_fm = energy.model().ferromagnetic_energy();
  WLSMS_EXPECTS(e_fm < 0.0);
  const double e_top = -e_fm;
  const double margin = margin_fraction * (e_top - e_fm);
  DosGridConfig grid;
  grid.e_min = e_fm - margin;
  grid.e_max = e_top + margin;
  grid.bins = bins;
  return grid;
}

}  // namespace wlsms::wl
