#pragma once

// Shared by the distributed-service suites of both transports (in-process
// and TCP): a cell large enough for move-local evaluation to matter, and a
// seeded accept/reject walk that checks it end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "obs/metrics.hpp"
#include "spin/moments.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::comm {

/// 54-atom bcc Fe (3x3x3 cells) at the fast test parameters: a one-site
/// move touches 15 of its 54 zones.
inline const std::shared_ptr<const lsms::LsmsSolver>& fe54_solver() {
  static const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(3), lsms::fe_lsms_parameters_fast());
  return solver;
}

/// Zones gathered by every DistributedEnergyService in this process.
inline std::uint64_t zones_solved() {
  return obs::Registry::instance().counter("comm.zones_solved").value();
}

/// Seeded Wang-Landau-shaped walk: every walker submits one single-site
/// trial per step, all walkers in flight together, and accepts it with
/// probability 1/2. Asserts each energy == LsmsSolver::energies of the
/// trial, and that the service solved exactly |affected_sites(site)| zones
/// per trial (every zone for the walkers' first evaluations).
inline void expect_move_local_walk(wl::EnergyService& service,
                                   const lsms::LsmsSolver& solver,
                                   std::size_t n_walkers, std::size_t n_steps,
                                   std::uint64_t seed) {
  const std::size_t n = solver.n_atoms();
  Rng rng(seed);
  std::vector<spin::MomentConfiguration> current;
  for (std::size_t w = 0; w < n_walkers; ++w)
    current.push_back(spin::MomentConfiguration::random(n, rng));
  std::uint64_t ticket = 0;

  for (std::size_t step = 0; step <= n_steps; ++step) {
    std::vector<spin::MomentConfiguration> trial = current;
    std::uint64_t expected_zones = 0;
    const std::uint64_t before = zones_solved();
    for (std::size_t w = 0; w < n_walkers; ++w) {
      if (step == 0) {
        expected_zones += n;  // no basis yet
      } else {
        const std::size_t site = rng.uniform_index(n);
        trial[w].set(site, rng.unit_vector());
        expected_zones += solver.affected_sites(site).size();
      }
      service.submit({w, ++ticket, trial[w]});
    }
    for (std::size_t k = 0; k < n_walkers; ++k) {
      const wl::EnergyResult result = service.retrieve();
      EXPECT_FALSE(result.failed);
      EXPECT_EQ(result.energy, solver.energies(trial[result.walker]).total)
          << "step " << step << " walker " << result.walker;
    }
    EXPECT_EQ(zones_solved() - before, expected_zones) << "step " << step;
    for (std::size_t w = 0; w < n_walkers; ++w)
      if (step == 0 || rng.uniform() < 0.5) current[w] = trial[w];
  }
  EXPECT_EQ(service.outstanding(), 0u);
}

}  // namespace wlsms::comm
