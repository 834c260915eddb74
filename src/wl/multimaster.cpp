#include "wl/multimaster.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "wl/rewl.hpp"

namespace wlsms::wl {

DosGrid merge_dos_estimates(const std::vector<const DosGrid*>& estimates) {
  WLSMS_EXPECTS(!estimates.empty());
  const DosGrid& first = *estimates.front();
  DosGrid merged(first.config());

  std::vector<double> ln_g(first.bins(), 0.0);
  std::vector<std::uint8_t> visited(first.bins(), 0);
  for (std::size_t b = 0; b < first.bins(); ++b) {
    double sum = 0.0;
    std::size_t contributors = 0;
    for (const DosGrid* grid : estimates) {
      WLSMS_EXPECTS(grid->bins() == first.bins());
      if (!grid->visited()[b]) continue;
      sum += grid->ln_g_values()[b];
      ++contributors;
    }
    if (contributors > 0) {
      ln_g[b] = sum / static_cast<double>(contributors);
      visited[b] = 1;
    }
  }
  merged.set_ln_g_values(std::move(ln_g));
  merged.set_visited(std::move(visited));
  return merged;
}

MultiMasterResult run_multimaster(const EnergyFunction& energy,
                                  const WangLandauConfig& per_master_config,
                                  std::size_t n_masters, double gamma_final,
                                  Rng seed_rng) {
  WLSMS_EXPECTS(n_masters >= 1);
  WLSMS_EXPECTS(gamma_final > 0.0 && gamma_final < 1.0);

  std::vector<WangLandau> masters;
  masters.reserve(n_masters);
  for (std::size_t m = 0; m < n_masters; ++m)
    masters.emplace_back(energy, per_master_config,
                         std::make_unique<HalvingSchedule>(1.0, gamma_final),
                         seed_rng.split(static_cast<unsigned>(m)));
  WindowRunner runner(std::move(masters));

  MultiMasterResult result{DosGrid(per_master_config.grid), {}, 0};
  for (bool done = false; !done;) {
    // One level: each master walks until its own gamma cut, then all share
    // the merged estimate. The run ends once the masters have converged or
    // one has reached its step cap.
    runner.round([](WangLandau& master) {
      const std::size_t level = master.stats().iterations;
      while (master.stats().iterations == level && master.step()) {
      }
    });
    std::vector<const DosGrid*> views;
    for (std::size_t m = 0; m < n_masters; ++m)
      views.push_back(&runner[m].dos());
    result.merged_dos = merge_dos_estimates(views);
    for (std::size_t m = 0; m < n_masters; ++m) {
      runner[m].dos().set_ln_g_values(result.merged_dos.ln_g_values());
      runner[m].dos().set_visited(result.merged_dos.visited());
      done = done || runner[m].done();
    }
  }
  runner.flush();

  for (std::size_t m = 0; m < n_masters; ++m)
    result.per_master.push_back(runner[m].stats());
  // A master stopped by the step cap completed the fewest levels.
  result.gamma_levels =
      std::ranges::min(result.per_master, {}, &WangLandauStats::iterations)
          .iterations;
  return result;
}

}  // namespace wlsms::wl
