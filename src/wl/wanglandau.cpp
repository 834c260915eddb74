#include "wl/wanglandau.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wlsms::wl {

WangLandau::WangLandau(const EnergyFunction& energy,
                       const WangLandauConfig& config,
                       std::unique_ptr<ModificationSchedule> schedule, Rng rng)
    : energy_(energy),
      config_(config),
      dos_(config.grid),
      schedule_(std::move(schedule)),
      rng_(rng) {
  WLSMS_EXPECTS(config.n_walkers >= 1);
  WLSMS_EXPECTS(config.flatness > 0.0 && config.flatness < 1.0);
  WLSMS_EXPECTS(config.check_interval >= 1);
  WLSMS_EXPECTS(schedule_ != nullptr);

  walkers_.reserve(config.n_walkers);
  for (std::size_t w = 0; w < config.n_walkers; ++w) {
    Walker walker;
    walker.config =
        spin::MomentConfiguration::random(energy_.n_sites(), rng_);
    walker.energy = energy_.total_energy(walker.config);
    WLSMS_EXPECTS(dos_.contains(walker.energy));
    walkers_.push_back(std::move(walker));
  }
}

WangLandau::WangLandau(const EnergyFunction& energy,
                       const WangLandauConfig& config,
                       std::unique_ptr<ModificationSchedule> schedule, Rng rng,
                       const std::vector<spin::MomentConfiguration>&
                           initial_walkers)
    : energy_(energy),
      config_(config),
      dos_(config.grid),
      schedule_(std::move(schedule)),
      rng_(rng) {
  WLSMS_EXPECTS(config.n_walkers >= 1);
  WLSMS_EXPECTS(config.flatness > 0.0 && config.flatness < 1.0);
  WLSMS_EXPECTS(config.check_interval >= 1);
  WLSMS_EXPECTS(schedule_ != nullptr);
  WLSMS_EXPECTS(initial_walkers.size() == config.n_walkers);

  walkers_.reserve(config.n_walkers);
  for (const spin::MomentConfiguration& initial : initial_walkers) {
    WLSMS_EXPECTS(initial.size() == energy_.n_sites());
    Walker walker;
    walker.config = initial;
    walker.energy = energy_.total_energy(walker.config);
    WLSMS_EXPECTS(dos_.contains(walker.energy));
    walkers_.push_back(std::move(walker));
  }
}

void WangLandau::set_walker(std::size_t w,
                            const spin::MomentConfiguration& config) {
  WLSMS_EXPECTS(w < walkers_.size());
  WLSMS_EXPECTS(config.size() == energy_.n_sites());
  walkers_[w].config = config;
  walkers_[w].energy = energy_.total_energy(config);
  WLSMS_EXPECTS(dos_.contains(walkers_[w].energy));
}

void WangLandau::advance(Walker& walker) {
  const spin::TrialMove move = move_generator_.propose(walker.config, rng_);
  const double e_new =
      energy_.energy_after_move(walker.config, move, walker.energy);
  ++stats_.total_steps;

  if (!dos_.contains(e_new)) {
    // Proposals outside the window are rejected outright; the walk still
    // deposits weight at its current energy.
    ++stats_.out_of_range;
  } else {
    // Flat-histogram acceptance, eq. 5: min[1, g(E_old)/g(E_new)].
    const double ln_ratio = dos_.ln_g(walker.energy) - dos_.ln_g(e_new);
    if (ln_ratio >= 0.0 || rng_.uniform() < std::exp(ln_ratio)) {
      walker.config.set(move.site, move.new_direction);
      walker.energy = e_new;
      ++stats_.accepted_steps;
    }
  }

  // Refresh the incrementally tracked energy periodically so floating-point
  // drift cannot accumulate over long walks.
  if (stats_.total_steps % (1u << 22) == 0)
    walker.energy = energy_.total_energy(walker.config);

  // Update g and H at the walker's current (post-decision) energy after
  // every trial, rejected ones included (classic Wang-Landau). A first-time
  // bin visit restarts the flatness clock: the support grew.
  if (dos_.visit(walker.energy, schedule_->gamma())) dos_.reset_histogram();
  schedule_->on_step(stats_.total_steps);
}

bool WangLandau::step() {
  if (converged() || stats_.total_steps >= config_.max_steps) return false;
  for (Walker& walker : walkers_) advance(walker);
  iteration_steps_ += walkers_.size();

  const std::uint64_t cap = config_.max_iteration_steps > 0
                                ? config_.max_iteration_steps
                                : 1000 * dos_.bins();
  if (stats_.total_steps / config_.check_interval !=
      (stats_.total_steps - walkers_.size()) / config_.check_interval) {
    {
      const obs::Span span("wl.flatness_check");
      const bool flat = dos_.is_flat(config_.flatness);
      if (flat || iteration_steps_ >= cap) {
        schedule_->on_flat_histogram(stats_.total_steps);
        dos_.reset_histogram();
        ++stats_.iterations;
        if (!flat) ++stats_.forced_iterations;
        iteration_steps_ = 0;
      }
    }
    publish_metrics();
  }
  return !converged() && stats_.total_steps < config_.max_steps;
}

void WangLandau::publish_metrics() {
  // Batched at flatness-check boundaries so the per-step hot path stays
  // untouched; counters take deltas against what was already published.
  static obs::Counter& steps = obs::Registry::instance().counter("wl.steps");
  static obs::Counter& accepted =
      obs::Registry::instance().counter("wl.accepted_steps");
  static obs::Counter& out_of_range =
      obs::Registry::instance().counter("wl.out_of_range");
  static obs::Counter& iterations =
      obs::Registry::instance().counter("wl.iterations");
  static obs::Gauge& acceptance_rate =
      obs::Registry::instance().gauge("wl.acceptance_rate");
  static obs::Gauge& flatness_ratio =
      obs::Registry::instance().gauge("wl.flatness_ratio");
  static obs::Gauge& ln_f = obs::Registry::instance().gauge("wl.ln_f");

  steps.add(stats_.total_steps - published_.total_steps);
  accepted.add(stats_.accepted_steps - published_.accepted_steps);
  out_of_range.add(stats_.out_of_range - published_.out_of_range);
  iterations.add(stats_.iterations - published_.iterations);
  published_ = stats_;

  if (stats_.total_steps > 0)
    acceptance_rate.set(static_cast<double>(stats_.accepted_steps) /
                        static_cast<double>(stats_.total_steps));
  flatness_ratio.set(dos_.flatness_ratio());
  ln_f.set(schedule_->gamma());
}

const WangLandauStats& WangLandau::run() {
  // One wl.sweep span per flatness-check interval: coarse enough not to
  // swamp the trace ring, fine enough to show the walk's cadence.
  while (true) {
    const obs::Span span("wl.sweep");
    const std::uint64_t target = stats_.total_steps + config_.check_interval;
    bool more = true;
    while ((more = step()) && stats_.total_steps < target) {
    }
    if (!more) break;
  }
  publish_metrics();  // counts accumulated since the last check boundary
  return stats_;
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
