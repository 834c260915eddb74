#include "wl/engine.hpp"

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace wlsms::wl {

namespace {
std::size_t cells(const DosGrid& g) { return g.bins(); }
std::size_t cells(const JointDos& g) { return g.e_bins() * g.m_bins(); }
}  // namespace

template <class Grid>
void Engine<Grid>::validate(std::size_t n_walkers) {
  WLSMS_EXPECTS(n_walkers >= 1);
  WLSMS_EXPECTS(flatness_ > 0.0 && flatness_ < 1.0);
  WLSMS_EXPECTS(check_interval_ >= 1);
  WLSMS_EXPECTS(schedule_ != nullptr);
  if (cap_ == 0) cap_ = 1000 * cells(grid_);
  next_check_ = check_interval_;
  set_gauge_suffix("");
}

template <class Grid>
void Engine<Grid>::set_gauge_suffix(const std::string& suffix) {
  obs::Registry& registry = obs::Registry::instance();
  acceptance_rate_ = &registry.gauge("wl.acceptance_rate" + suffix);
  flatness_ratio_ = &registry.gauge("wl.flatness_ratio" + suffix);
  ln_f_ = &registry.gauge("wl.ln_f" + suffix);
}

template <class Grid>
void Engine<Grid>::publish_metrics() {
  // Called at flatness checks and run ends only, so the per-step hot path
  // stays untouched; counters take deltas against what was already
  // published, so concurrent engines sum correctly.
  static obs::Counter& steps = obs::Registry::instance().counter("wl.steps");
  static obs::Counter& accepted =
      obs::Registry::instance().counter("wl.accepted_steps");
  static obs::Counter& out_of_range =
      obs::Registry::instance().counter("wl.out_of_range");
  static obs::Counter& iterations =
      obs::Registry::instance().counter("wl.iterations");
  static obs::Counter& resubmissions =
      obs::Registry::instance().counter("wl.resubmissions");

  steps.add(stats_.total_steps - published_.total_steps);
  accepted.add(stats_.accepted_steps - published_.accepted_steps);
  out_of_range.add(stats_.out_of_range - published_.out_of_range);
  iterations.add(stats_.iterations - published_.iterations);
  resubmissions.add(stats_.resubmissions - published_.resubmissions);
  published_ = stats_;

  if (stats_.total_steps > 0)
    acceptance_rate_->set(static_cast<double>(stats_.accepted_steps) /
                          static_cast<double>(stats_.total_steps));
  flatness_ratio_->set(grid_.flatness_ratio());
  ln_f_->set(schedule_->gamma());
}

template class Engine<DosGrid>;
template class Engine<JointDos>;

}  // namespace wlsms::wl
