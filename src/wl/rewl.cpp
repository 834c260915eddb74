#include "wl/rewl.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wlsms::wl {

std::vector<RewlWindow> make_rewl_windows(const DosGridConfig& global,
                                          std::size_t n_windows,
                                          double overlap) {
  WLSMS_EXPECTS(n_windows >= 1);
  WLSMS_EXPECTS(overlap >= 0.0 && overlap < 1.0);
  WLSMS_EXPECTS(global.bins >= 2);
  WLSMS_EXPECTS(global.e_max > global.e_min);

  if (n_windows == 1) return {{0, global.bins, global}};

  const std::size_t b_total = global.bins;
  const double h = (global.e_max - global.e_min) / static_cast<double>(b_total);

  // Equal-width windows: n*w - (n-1)*overlap*w spans the range, so the
  // window width in bins is ceil(B / (n - (n-1)*overlap)).
  const double denom = static_cast<double>(n_windows) -
                       static_cast<double>(n_windows - 1) * overlap;
  std::size_t w_bins = static_cast<std::size_t>(
      std::ceil(static_cast<double>(b_total) / denom));
  w_bins = std::min(w_bins, b_total);
  WLSMS_EXPECTS(w_bins >= 4);  // too coarse a grid for this decomposition

  std::vector<RewlWindow> windows;
  windows.reserve(n_windows);
  for (std::size_t i = 0; i < n_windows; ++i) {
    // Evenly spaced starts: first window at bin 0, last ending at b_total.
    const std::size_t start =
        (i * (b_total - w_bins) + (n_windows - 1) / 2) / (n_windows - 1);
    RewlWindow window;
    window.first_bin = start;
    window.n_bins = w_bins;
    window.grid.e_min = global.e_min + static_cast<double>(start) * h;
    window.grid.e_max =
        global.e_min + static_cast<double>(start + w_bins) * h;
    window.grid.bins = w_bins;
    // Keep the *absolute* kernel width of the global grid: the fraction is
    // relative to the window range, which shrank.
    window.grid.kernel_width_fraction =
        global.kernel_width_fraction * static_cast<double>(b_total) /
        static_cast<double>(w_bins);
    windows.push_back(window);
  }

  // Replica exchange and stitching both need a real shared region.
  for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
    WLSMS_EXPECTS(windows[i + 1].first_bin + 2 <=
                  windows[i].first_bin + windows[i].n_bins);
  }
  return windows;
}

spin::MomentConfiguration seed_configuration_in_band(
    const EnergyFunction& energy, double e_lo, double e_hi, Rng& rng,
    double margin_fraction, std::uint64_t max_steps) {
  WLSMS_EXPECTS(e_hi > e_lo);
  WLSMS_EXPECTS(margin_fraction >= 0.0 && margin_fraction < 0.5);

  const double margin = margin_fraction * (e_hi - e_lo);
  const double lo = e_lo + margin;
  const double hi = e_hi - margin;
  const double target = 0.5 * (e_lo + e_hi);

  spin::MomentConfiguration config =
      spin::MomentConfiguration::random(energy.n_sites(), rng);
  double e = energy.total_energy(config);
  const spin::UniformSphereMove mover;
  for (std::uint64_t step = 0; step < max_steps; ++step) {
    if (e >= lo && e <= hi) return config;
    const spin::TrialMove move = mover.propose(config, rng);
    const double e_new = energy.energy_after_move(config, move, e);
    if (std::abs(e_new - target) <= std::abs(e - target)) {
      config.set(move.site, move.new_direction);
      e = e_new;
    }
  }
  WLSMS_ENSURES(false);  // window unreachable from a random configuration
  return config;
}

DosGrid stitch_window_estimates(const DosGridConfig& global,
                                const std::vector<RewlWindow>& windows,
                                const std::vector<const DosGrid*>& estimates) {
  WLSMS_EXPECTS(!windows.empty());
  WLSMS_EXPECTS(estimates.size() == windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    WLSMS_EXPECTS(estimates[w]->bins() == windows[w].n_bins);
    WLSMS_EXPECTS(windows[w].first_bin + windows[w].n_bins <= global.bins);
  }

  std::vector<double> ln_g(global.bins, 0.0);
  std::vector<std::uint8_t> visited(global.bins, 0);

  // Window 0 is the reference branch.
  for (std::size_t k = 0; k < windows[0].n_bins; ++k) {
    if (!estimates[0]->visited()[k]) continue;
    ln_g[windows[0].first_bin + k] = estimates[0]->ln_g_values()[k];
    visited[windows[0].first_bin + k] = 1;
  }
  std::size_t stitched_end = windows[0].first_bin + windows[0].n_bins;

  for (std::size_t w = 1; w < windows.size(); ++w) {
    const RewlWindow& window = windows[w];
    const DosGrid& dos = *estimates[w];

    // Overlap with everything stitched so far, in global bins. A WL walker
    // confined to a window overestimates ln g in the outermost bins (moves
    // beyond the edge are rejected but still deposit weight inside), so the
    // join is restricted to the overlap interior: trim the edge-biased bins
    // of this window's left edge and the previous window's right edge.
    const std::size_t trim = std::max<std::size_t>(2, window.n_bins / 12);
    const std::size_t lo = window.first_bin + trim;
    const std::size_t hi =
        std::min(stitched_end > trim ? stitched_end - trim : 0,
                 window.first_bin + window.n_bins);

    // Join where the log-derivatives of the previous branch and this window
    // agree best; the derivative is offset-free, so it identifies the bin
    // where the two independent estimates have the same local shape.
    std::size_t join = global.bins;  // sentinel: none found yet
    double best = 1e300;
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t k = b - window.first_bin;
      if (!visited[b] || !dos.visited()[k]) continue;
      // Derivatives need visited neighbours on both branches.
      if (b == 0 || b + 1 >= hi || !visited[b - 1] || !visited[b + 1]) continue;
      if (k == 0 || k + 1 >= dos.bins() || !dos.visited()[k - 1] ||
          !dos.visited()[k + 1])
        continue;
      const std::size_t prev_first = b - 1 - window.first_bin;
      const double d_prev = (ln_g[b + 1] - ln_g[b - 1]) /
                            (2.0 * dos.bin_width());
      const double d_here = (dos.ln_g_values()[prev_first + 2] -
                             dos.ln_g_values()[prev_first]) /
                            (2.0 * dos.bin_width());
      const double mismatch = std::abs(d_prev - d_here);
      if (mismatch < best) {
        best = mismatch;
        join = b;
      }
    }
    if (join == global.bins) {
      // No interior derivative candidate (e.g. razor-thin overlap): fall
      // back to the first bin visited by both branches, untrimmed.
      const std::size_t raw_hi =
          std::min(stitched_end, window.first_bin + window.n_bins);
      for (std::size_t b = window.first_bin; b < raw_hi && join == global.bins;
           ++b)
        if (visited[b] && dos.visited()[b - window.first_bin]) join = b;
    }
    WLSMS_ENSURES(join < global.bins);  // windows must genuinely overlap

    // The additive constant comes from a small neighbourhood of the seam
    // rather than the single join bin, averaging down per-bin noise while
    // keeping the stitched curve continuous at the seam.
    double offset_sum = 0.0;
    std::size_t offset_count = 0;
    for (std::size_t b = join >= 2 ? join - 2 : 0;
         b <= join + 2 && b < global.bins; ++b) {
      if (b < window.first_bin || b >= window.first_bin + window.n_bins)
        continue;
      const std::size_t k = b - window.first_bin;
      if (!visited[b] || !dos.visited()[k]) continue;
      offset_sum += ln_g[b] - dos.ln_g_values()[k];
      ++offset_count;
    }
    WLSMS_ENSURES(offset_count > 0);
    const double offset = offset_sum / static_cast<double>(offset_count);
    for (std::size_t k = join - window.first_bin; k < window.n_bins; ++k) {
      const std::size_t b = window.first_bin + k;
      if (!dos.visited()[k]) continue;
      ln_g[b] = dos.ln_g_values()[k] + offset;
      visited[b] = 1;
    }
    stitched_end = std::max(stitched_end, window.first_bin + window.n_bins);
  }

  // Canonical normalization: min over visited bins at zero.
  double min_val = 1e300;
  for (std::size_t b = 0; b < global.bins; ++b)
    if (visited[b]) min_val = std::min(min_val, ln_g[b]);
  if (min_val < 1e300)
    for (std::size_t b = 0; b < global.bins; ++b)
      if (visited[b]) ln_g[b] -= min_val;

  DosGrid stitched(global);
  stitched.set_ln_g_values(std::move(ln_g));
  stitched.set_visited(std::move(visited));
  return stitched;
}

WindowRunner::WindowRunner(std::vector<WangLandau> windows)
    : windows_(std::move(windows)), pool_(windows_.size()) {
  for (std::size_t k = 0; k < windows_.size(); ++k)
    windows_[k].engine().set_gauge_suffix(".window" + std::to_string(k));
}

std::size_t WindowRunner::round(
    const std::function<void(WangLandau&)>& work) {
  std::vector<WangLandau*> active;
  for (WangLandau& window : windows_)
    if (!window.done()) active.push_back(&window);
  // The latch is the barrier that also publishes each sampler's state back
  // to this thread. An exception must not escape a pool thread (the
  // runtime terminates) nor skip the latch, so the first one is kept and
  // rethrown here once every task has finished.
  std::latch round_done(static_cast<std::ptrdiff_t>(active.size()));
  std::mutex failure_mutex;
  std::exception_ptr failure;
  for (WangLandau* window : active) {
    pool_.post([&, window] {
      try {
        const obs::Span window_span("wl.window_run");
        work(*window);
      } catch (...) {
        const std::scoped_lock lock(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
      round_done.count_down();
    });
  }
  round_done.wait();
  if (failure) std::rethrow_exception(failure);
  return active.size();
}

void WindowRunner::flush() {
  for (WangLandau& window : windows_) window.engine().publish_metrics();
}

RewlResult run_rewl(const EnergyFunction& energy, const RewlConfig& config,
                    const ModificationSchedule& schedule_prototype,
                    Rng root_rng) {
  WLSMS_EXPECTS(config.n_windows >= 1);
  WLSMS_EXPECTS(config.exchange_interval >= 1);

  const std::vector<RewlWindow> windows =
      make_rewl_windows(config.base.grid, config.n_windows, config.overlap);
  const std::size_t n = windows.size();

  // Per-window samplers with walkers seeded inside their window. Every
  // window draws from its own split of the root stream; the exchange sweep
  // owns stream n.
  std::vector<WangLandau> samplers;
  samplers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    WangLandauConfig wc = config.base;
    wc.grid = windows[i].grid;
    Rng window_rng = root_rng.split(static_cast<unsigned>(i));
    std::vector<spin::MomentConfiguration> initial;
    initial.reserve(wc.n_walkers);
    for (std::size_t walker = 0; walker < wc.n_walkers; ++walker)
      initial.push_back(seed_configuration_in_band(
          energy, windows[i].grid.e_min, windows[i].grid.e_max, window_rng));
    samplers.emplace_back(energy, wc, schedule_prototype.clone(), window_rng,
                          initial);
  }
  Rng exchange_rng = root_rng.split(static_cast<unsigned>(n));
  WindowRunner runner(std::move(samplers));

  RewlResult result{DosGrid(config.base.grid), windows, {}, {}, 0, 0, 0, 0};

  static obs::Counter& rounds_counter =
      obs::Registry::instance().counter("rewl.rounds");
  static obs::Counter& exchange_attempts_counter =
      obs::Registry::instance().counter("rewl.exchange_attempts");
  static obs::Counter& exchange_accepts_counter =
      obs::Registry::instance().counter("rewl.exchange_accepts");
  static obs::Gauge& exchange_accept_rate =
      obs::Registry::instance().gauge("rewl.exchange_accept_rate");

  while (result.rounds < config.max_rounds) {
    const obs::Span round_span("rewl.round");
    // One round: every active window advances exchange_interval steps.
    const std::size_t ran = runner.round([&](WangLandau& sampler) {
      for (std::uint64_t s = 0; s < config.exchange_interval; ++s)
        if (!sampler.step()) break;
    });
    if (ran == 0) break;
    ++result.rounds;
    rounds_counter.inc();

    // Deterministic exchange sweep on this thread, alternating pairings
    // (0,1)(2,3)... and (1,2)(3,4)... between rounds.
    const obs::Span exchange_span("rewl.exchange_sweep");
    for (std::size_t i = result.rounds % 2; i + 1 < n; i += 2) {
      WangLandau& a = runner[i];
      WangLandau& b = runner[i + 1];
      if (a.done() || b.done()) continue;
      const std::size_t wa = static_cast<std::size_t>(
          exchange_rng.uniform_index(a.n_walkers()));
      const std::size_t wb = static_cast<std::size_t>(
          exchange_rng.uniform_index(b.n_walkers()));
      const double ea = a.walker_energy(wa);
      const double eb = b.walker_energy(wb);
      if (!a.dos().contains(eb) || !b.dos().contains(ea)) {
        ++result.exchange_ineligible;
        continue;
      }
      ++result.exchange_attempts;
      exchange_attempts_counter.inc();
      // min(1, g_i(E_i) g_j(E_j) / (g_i(E_j) g_j(E_i))) in ln form.
      const double ln_accept = a.dos().ln_g(ea) - a.dos().ln_g(eb) +
                               b.dos().ln_g(eb) - b.dos().ln_g(ea);
      const double u = exchange_rng.uniform();
      if (ln_accept >= 0.0 || u < std::exp(ln_accept)) {
        ++result.exchange_accepts;
        exchange_accepts_counter.inc();
        const spin::MomentConfiguration config_a = a.walker_config(wa);
        const spin::MomentConfiguration config_b = b.walker_config(wb);
        a.set_walker(wa, config_b);
        b.set_walker(wb, config_a);
      }
    }
    if (result.exchange_attempts > 0)
      exchange_accept_rate.set(
          static_cast<double>(result.exchange_accepts) /
          static_cast<double>(result.exchange_attempts));
  }
  runner.flush();

  std::vector<const DosGrid*> views;
  for (std::size_t i = 0; i < n; ++i) {
    result.per_window.push_back(runner[i].stats());
    result.window_dos.push_back(runner[i].dos());
    views.push_back(&runner[i].dos());
  }
  result.stitched =
      stitch_window_estimates(config.base.grid, windows, views);
  return result;
}

}  // namespace wlsms::wl
