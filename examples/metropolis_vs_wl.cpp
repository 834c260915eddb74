// Side-by-side comparison of the two sampling strategies the paper
// contrasts (§I, §II-A): conventional Metropolis importance sampling — one
// simulation per temperature — versus a single Wang-Landau run whose
// density of states yields every temperature at once. Also demonstrates the
// master-slave driver with out-of-order results and injected node failures
// (the parallelization and resilience story of §II-C/§V).
#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "heisenberg/heisenberg.hpp"
#include "io/table.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "mc/metropolis.hpp"
#include "parallel/failure.hpp"
#include "perf/timer.hpp"
#include "thermo/observables.hpp"
#include "wl/driver.hpp"

int main() {
  using namespace wlsms;

  std::vector<double> j = lsms::fe_reference_exchange();
  for (double& v : j) v *= lsms::fe_exchange_energy_scale;
  const wl::HeisenbergEnergy energy(
      heisenberg::HeisenbergModel(lattice::make_fe_supercell(2), j));

  // --- Wang-Landau through the master-slave driver ------------------------
  // Results return out of order, and 1 % of all submissions are lost in
  // flight and transparently resubmitted by the driver. Both are seeded,
  // so the run is deterministic.
  Rng window_rng(5);
  wl::WangLandauConfig config;
  config.grid = wl::thermal_window(
      energy, energy.model().ferromagnetic_energy(), 150.0, window_rng);
  config.n_walkers = 8;
  config.check_interval = 5000;
  config.max_iteration_steps = 2000000;

  parallel::FailureInjectingService flaky(
      std::make_unique<wl::ReorderingEnergyService>(energy, Rng(0x5eed)),
      0.01, Rng(7));

  perf::Timer wl_timer;
  wl::WlDriver driver(energy.n_sites(), flaky, config,
                      std::make_unique<wl::HalvingSchedule>(1.0, 1e-5),
                      Rng(123));
  const wl::DriverStats& wl_stats = driver.run();
  const double wl_seconds = wl_timer.seconds();
  const thermo::DosTable dos = thermo::dos_table(driver.dos());

  std::printf("Wang-Landau (out-of-order driver, 1%% node loss):\n");
  std::printf("  %llu energy evaluations, %llu resubmitted after failures, "
              "%.1f s\n\n",
              static_cast<unsigned long long>(wl_stats.total_steps),
              static_cast<unsigned long long>(wl_stats.resubmissions),
              wl_seconds);

  // --- Metropolis temperature sweep ---------------------------------------
  std::vector<double> temperatures;
  for (double t = 300.0; t <= 2100.0; t += 200.0) temperatures.push_back(t);
  mc::MetropolisConfig mc_config;
  mc_config.thermalization_steps = 200000;
  mc_config.measurement_steps = 800000;
  mc_config.measure_interval = 16;

  perf::Timer mc_timer;
  Rng mc_rng(99);
  const auto mc_results =
      mc::metropolis_sweep(energy, temperatures, mc_config, mc_rng);
  const double mc_seconds = mc_timer.seconds();
  std::uint64_t mc_evals = 0;
  for (const auto& r : mc_results) mc_evals += r.energy_evaluations;
  std::printf("Metropolis sweep (%zu temperatures): %llu energy "
              "evaluations, %.1f s\n\n",
              temperatures.size(),
              static_cast<unsigned long long>(mc_evals), mc_seconds);

  // --- Agreement and economics --------------------------------------------
  io::TextTable table(
      {"T [K]", "U (WL) [Ry]", "U (Metropolis) [Ry]", "c (WL)", "c (MC)"});
  for (const auto& r : mc_results) {
    const thermo::Observables obs =
        thermo::observables_at(dos, r.temperature);
    table.row({io::format_double(r.temperature, 0),
               io::format_double(obs.internal_energy, 5),
               io::format_double(r.mean_energy, 5),
               io::format_double(obs.specific_heat * 1e4, 2) + "e-4",
               io::format_double(r.specific_heat * 1e4, 2) + "e-4"});
  }
  table.print();

  std::printf(
      "\nSame physics, different economics: the Metropolis sweep spent\n"
      "%.1fx the WL evaluation count *per %zu temperatures* and must be\n"
      "rerun for every new temperature, field, or observable, while the WL\n"
      "density of states above evaluates *any* temperature (and F and S,\n"
      "paper eqs. 13-16) without further sampling. With ab initio energies\n"
      "at tens of seconds each, that difference is the paper's reason to\n"
      "build WL-LSMS.\n",
      static_cast<double>(mc_evals) /
          static_cast<double>(wl_stats.total_steps),
      temperatures.size());
  return 0;
}
