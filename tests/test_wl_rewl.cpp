// Tests for replica-exchange windowed Wang-Landau (rewl.hpp): window
// layout, seeding, stitching, exact-DOS validation against the single-window
// reference of test_wl_exact.cpp, exchange acceptance, bit-exact
// determinism under a fixed root seed, and a window's exception reaching
// the caller.
#include "wl/rewl.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <cmath>
#include <string>

#include "common/units.hpp"
#include "heisenberg/heisenberg.hpp"
#include "lattice/cluster.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "obs/metrics.hpp"
#include "thermo/observables.hpp"
#include "throwing_energy.hpp"

namespace wlsms::wl {
namespace {

double langevin(double x) { return 1.0 / std::tanh(x) - 1.0 / x; }

HeisenbergEnergy single_bond_energy(double j) {
  return HeisenbergEnergy(heisenberg::HeisenbergModel(
      lattice::make_cubic_cluster(lattice::CubicLattice::kSimpleCubic, 1.0, 2,
                                  1, 1),
      {j}));
}

HeisenbergEnergy fe16_energy() {
  std::vector<double> j = lsms::fe_reference_exchange();
  for (double& v : j) v *= lsms::fe_exchange_energy_scale;
  return HeisenbergEnergy(
      heisenberg::HeisenbergModel(lattice::make_fe_supercell(2), j));
}

TEST(RewlWindows, SingleWindowIsTheGlobalGrid) {
  const DosGridConfig global{-1.0, 1.0, 100, 0.005};
  const auto windows = make_rewl_windows(global, 1, 0.75);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].first_bin, 0u);
  EXPECT_EQ(windows[0].n_bins, 100u);
  EXPECT_DOUBLE_EQ(windows[0].grid.e_min, global.e_min);
  EXPECT_DOUBLE_EQ(windows[0].grid.e_max, global.e_max);
}

TEST(RewlWindows, LayoutCoversRangeWithAlignedOverlappingWindows) {
  const DosGridConfig global{-2.0, 3.0, 240, 0.004};
  for (std::size_t n : {2u, 4u, 8u}) {
    for (double overlap : {0.35, 0.5, 0.75}) {
      const auto windows = make_rewl_windows(global, n, overlap);
      ASSERT_EQ(windows.size(), n);
      EXPECT_EQ(windows.front().first_bin, 0u);
      EXPECT_EQ(windows.back().first_bin + windows.back().n_bins, 240u);
      const double h = (global.e_max - global.e_min) / 240.0;
      for (const RewlWindow& w : windows) {
        // Bin-aligned: window edges sit on global bin boundaries, with the
        // same bin width.
        EXPECT_NEAR(w.grid.e_min,
                    global.e_min + static_cast<double>(w.first_bin) * h,
                    1e-12);
        EXPECT_EQ(w.grid.bins, w.n_bins);
        EXPECT_NEAR((w.grid.e_max - w.grid.e_min) /
                        static_cast<double>(w.n_bins),
                    h, 1e-12);
        // The absolute kernel width is preserved.
        EXPECT_NEAR(w.grid.kernel_width_fraction * (w.grid.e_max - w.grid.e_min),
                    global.kernel_width_fraction * (global.e_max - global.e_min),
                    1e-12);
      }
      for (std::size_t i = 0; i + 1 < n; ++i) {
        EXPECT_LT(windows[i].first_bin, windows[i + 1].first_bin);
        // At least two shared bins (needed for exchange and stitching).
        EXPECT_GE(windows[i].first_bin + windows[i].n_bins,
                  windows[i + 1].first_bin + 2);
      }
      // Requested overlap fraction is realized within bin granularity.
      const double achieved =
          static_cast<double>(windows[0].first_bin + windows[0].n_bins -
                              windows[1].first_bin) /
          static_cast<double>(windows[0].n_bins);
      EXPECT_NEAR(achieved, overlap, 0.15);
    }
  }
}

TEST(RewlWindows, InvalidArgumentsThrow) {
  const DosGridConfig global{-1.0, 1.0, 100, 0.005};
  EXPECT_THROW(make_rewl_windows(global, 0, 0.75), ContractError);
  EXPECT_THROW(make_rewl_windows(global, 2, 1.0), ContractError);
  EXPECT_THROW(make_rewl_windows(global, 2, -0.1), ContractError);
  // Too coarse a grid for the requested window count.
  EXPECT_THROW(make_rewl_windows({-1.0, 1.0, 6, 0.05}, 4, 0.0), ContractError);
}

TEST(RewlSeeding, ReachesNarrowBands) {
  const HeisenbergEnergy energy = single_bond_energy(1.0);
  Rng rng(3);
  // Low, middle and high slices of the single-bond spectrum [-1, 1].
  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {-1.0, -0.6}, {-0.2, 0.2}, {0.6, 1.0}}) {
    const spin::MomentConfiguration config =
        seed_configuration_in_band(energy, lo, hi, rng);
    const double e = energy.total_energy(config);
    EXPECT_GE(e, lo);
    EXPECT_LE(e, hi);
  }
}

TEST(RewlStitch, SingleFullWindowIsIdentityUpToNormalization) {
  const DosGridConfig global{0.0, 1.0, 8, 0.05};
  DosGrid estimate(global);
  estimate.set_ln_g_values({5, 6, 7, 8, 9, 10, 11, 12});
  estimate.set_visited({1, 1, 1, 1, 1, 1, 1, 1});
  const DosGrid stitched =
      stitch_window_estimates(global, {{0, 8, global}}, {&estimate});
  // Same shape, shifted so the minimum visited value is zero.
  for (std::size_t b = 0; b < 8; ++b)
    EXPECT_DOUBLE_EQ(stitched.ln_g_values()[b], static_cast<double>(b));
}

TEST(RewlStitch, TwoWindowsOfOneLineRecoverTheLine) {
  // Both windows sample ln g = 3 E exactly (up to window-local constants);
  // stitching must recover one straight line across the seam.
  const DosGridConfig global{0.0, 1.0, 20, 0.01};
  const auto windows = make_rewl_windows(global, 2, 0.6);
  std::vector<DosGrid> parts;
  for (const RewlWindow& w : windows) {
    DosGrid part(w.grid);
    std::vector<double> values(w.n_bins);
    for (std::size_t k = 0; k < w.n_bins; ++k)
      values[k] = 3.0 * part.bin_center(k) + (w.first_bin == 0 ? 7.0 : -4.0);
    part.set_ln_g_values(values);
    part.set_visited(std::vector<std::uint8_t>(w.n_bins, 1));
    parts.push_back(std::move(part));
  }
  const DosGrid stitched = stitch_window_estimates(
      global, windows, {&parts[0], &parts[1]});
  for (std::size_t b = 0; b < 20; ++b) {
    ASSERT_TRUE(stitched.visited()[b]);
    EXPECT_NEAR(stitched.ln_g_values()[b] - stitched.ln_g_values()[0],
                3.0 * (stitched.bin_center(b) - stitched.bin_center(0)), 1e-9);
  }
}

RewlConfig single_bond_config() {
  RewlConfig config;
  config.base.grid = {-1.02, 1.02, 102, 0.005};
  config.base.n_walkers = 2;
  config.base.check_interval = 2000;
  config.base.flatness = 0.8;
  config.base.max_iteration_steps = 300000;
  config.base.max_steps = 40000000;
  config.exchange_interval = 2000;
  return config;
}

TEST(Rewl, StitchedDosMatchesSingleWindowReference) {
  // The same validation test_wl_exact.cpp applies to the single-window
  // sampler: on one Heisenberg bond, ln g is exactly flat and the internal
  // energy is the Langevin result. Run the identical configuration once
  // with one window (the single-master reference) and once with four
  // windows; both must pass, and they must agree with each other.
  const HeisenbergEnergy energy = single_bond_energy(1.0);
  RewlConfig config = single_bond_config();

  config.n_windows = 1;
  const RewlResult reference =
      run_rewl(energy, config, HalvingSchedule(1.0, 1e-5), Rng(11));

  config.n_windows = 4;
  config.overlap = 0.75;
  const RewlResult rewl =
      run_rewl(energy, config, HalvingSchedule(1.0, 1e-5), Rng(11));

  // Flatness of the stitched interior, same tolerance as WlExact.
  const auto series = rewl.stitched.visited_series();
  ASSERT_GT(series.size(), 90u);
  double lo = 1e300;
  double hi = -1e300;
  for (std::size_t i = 3; i + 3 < series.size(); ++i) {
    lo = std::min(lo, series[i].second);
    hi = std::max(hi, series[i].second);
  }
  EXPECT_LT(hi - lo, 0.8);

  // Same internal energy as the reference run and as the exact result.
  const thermo::DosTable table = thermo::dos_table(rewl.stitched);
  const thermo::DosTable ref_table = thermo::dos_table(reference.stitched);
  for (double x : {0.5, 1.0, 2.0}) {
    const double t = 1.0 / (units::k_boltzmann_ry * x);
    const double u = thermo::observables_at(table, t).internal_energy;
    EXPECT_NEAR(u, -langevin(x), 0.03) << "x=" << x;
    EXPECT_NEAR(u, thermo::observables_at(ref_table, t).internal_energy, 0.05)
        << "x=" << x;
  }
}

TEST(Rewl, ExchangeAcceptanceIsInOpenInterval) {
  // On the 16-atom iron surrogate the DOS varies by many ln-units across
  // a window, so replica exchange must reject some swaps — and the overlap
  // guarantees it accepts some.
  const HeisenbergEnergy energy = fe16_energy();
  Rng window_rng(5);
  RewlConfig config;
  config.base.grid = thermal_window(
      energy, energy.model().ferromagnetic_energy(), 150.0, window_rng);
  config.base.n_walkers = 2;
  config.base.check_interval = 5000;
  config.base.flatness = 0.8;
  config.base.max_iteration_steps = 1000000;
  config.base.max_steps = 120000000;
  config.n_windows = 4;
  config.overlap = 0.75;
  config.exchange_interval = 2000;

  const RewlResult result =
      run_rewl(energy, config, HalvingSchedule(1.0, 1e-4), Rng(17));
  EXPECT_GT(result.exchange_attempts, 0u);
  EXPECT_GT(result.exchange_accepts, 0u);
  EXPECT_LT(result.exchange_accepts, result.exchange_attempts);
  const double acceptance = static_cast<double>(result.exchange_accepts) /
                            static_cast<double>(result.exchange_attempts);
  EXPECT_GT(acceptance, 0.0);
  EXPECT_LT(acceptance, 1.0);
}

TEST(Rewl, FixedSeedReproducesBitIdenticalOutput) {
  // The concurrency structure (per-window Rng streams split from one root
  // seed, barrier-synchronized rounds, exchanges on the coordinator) makes
  // the run independent of thread scheduling: identical seeds must give
  // byte-identical stitched estimates and identical exchange statistics.
  const HeisenbergEnergy energy = single_bond_energy(1.0);
  RewlConfig config = single_bond_config();
  config.n_windows = 3;
  config.overlap = 0.5;

  const RewlResult a =
      run_rewl(energy, config, HalvingSchedule(1.0, 1e-3), Rng(29));
  const RewlResult b =
      run_rewl(energy, config, HalvingSchedule(1.0, 1e-3), Rng(29));

  EXPECT_EQ(a.stitched.ln_g_values(), b.stitched.ln_g_values());
  EXPECT_EQ(a.stitched.visited(), b.stitched.visited());
  EXPECT_EQ(a.exchange_attempts, b.exchange_attempts);
  EXPECT_EQ(a.exchange_accepts, b.exchange_accepts);
  EXPECT_EQ(a.exchange_ineligible, b.exchange_ineligible);
  EXPECT_EQ(a.rounds, b.rounds);
  ASSERT_EQ(a.per_window.size(), b.per_window.size());
  for (std::size_t w = 0; w < a.per_window.size(); ++w) {
    EXPECT_EQ(a.per_window[w].total_steps, b.per_window[w].total_steps);
    EXPECT_EQ(a.per_window[w].accepted_steps, b.per_window[w].accepted_steps);
  }

  // A different seed gives a different walk (sanity check that the test
  // above is not vacuous).
  const RewlResult c =
      run_rewl(energy, config, HalvingSchedule(1.0, 1e-3), Rng(30));
  EXPECT_NE(a.stitched.ln_g_values(), c.stitched.ln_g_values());
}

TEST(Rewl, WindowExceptionReachesTheCaller) {
  // A backend failing inside a round throws on a pool thread. run_rewl must
  // rethrow it to its caller once the round's other windows have stopped;
  // it must not terminate the process. Seeding the 3 x 2 walkers takes far
  // fewer moves than the threshold, and one round takes 3 x 2 x 2000.
  constexpr std::uint64_t kThreshold = 10000;
  const HeisenbergEnergy bond = single_bond_energy(1.0);
  const ThrowingEnergy energy(bond, kThreshold);
  RewlConfig config = single_bond_config();
  config.n_windows = 3;
  config.overlap = 0.5;
  EXPECT_THROW(run_rewl(energy, config, HalvingSchedule(1.0, 1e-3), Rng(29)),
               BackendFailure);
  EXPECT_GT(energy.calls(), kThreshold);
}

TEST(Rewl, PerWindowStatsAndWindowDosAreReported) {
  const HeisenbergEnergy energy = single_bond_energy(1.0);
  RewlConfig config = single_bond_config();
  config.n_windows = 2;
  const RewlResult result =
      run_rewl(energy, config, HalvingSchedule(1.0, 1e-3), Rng(7));
  ASSERT_EQ(result.per_window.size(), 2u);
  ASSERT_EQ(result.window_dos.size(), 2u);
  ASSERT_EQ(result.windows.size(), 2u);
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_GT(result.per_window[w].total_steps, 0u);
    EXPECT_GT(result.per_window[w].iterations, 0u);
    EXPECT_EQ(result.window_dos[w].bins(), result.windows[w].n_bins);
  }
  EXPECT_GT(result.rounds, 0u);
}

TEST(Rewl, EachWindowPublishesItsOwnProgressGauges) {
  // Windows run on pool threads; each keeps its own ln f series instead of
  // overwriting one shared gauge, and the final flush leaves every series
  // at its window's final gamma and every counted step in wl.steps — also
  // the steps after the last flatness check of a window stopped by its cap.
  const HeisenbergEnergy energy = single_bond_energy(1.0);
  RewlConfig config = single_bond_config();
  config.n_windows = 2;
  config.base.max_steps = 30001;
  const obs::Counter& steps = obs::Registry::instance().counter("wl.steps");
  const std::uint64_t steps_before = steps.value();
  const RewlResult result =
      run_rewl(energy, config, HalvingSchedule(1.0, 1e-3), Rng(8));
  ASSERT_EQ(result.per_window.size(), 2u);
  EXPECT_EQ(steps.value() - steps_before,
            result.per_window[0].total_steps +
                result.per_window[1].total_steps);
  for (std::size_t w = 0; w < 2; ++w) {
    const std::string k = std::to_string(w);
    const double final_gamma = std::ldexp(
        1.0, -static_cast<int>(result.per_window[w].iterations));
    EXPECT_EQ(obs::Registry::instance().gauge("wl.ln_f.window" + k).value(),
              final_gamma)
        << "window " << w;
    EXPECT_GT(obs::Registry::instance()
                  .gauge("wl.acceptance_rate.window" + k)
                  .value(),
              0.0);
  }
}

}  // namespace
}  // namespace wlsms::wl
