// Tests for the speculative mixed-fidelity decorator (wl/speculator.hpp):
// the bit-identity property (band 0 / audit 1.0 degenerates to the plain
// driver, compared with == over synchronous AND distributed services), the
// retry accounting regression (failed-result resubmissions must not
// double-count in spec.hit_rate), the online J_ij refit cadence, and the
// error-budget trip + recovery path. Exact services are built through
// comm::make_energy_service, as the CLI builds them; the screen over a
// Heisenberg backend and the failure decorator are composed directly.
#include "wl/speculator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "comm/factory.hpp"
#include "common/error.hpp"
#include "lattice/cluster.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "parallel/failure.hpp"
#include "wl/driver.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::wl {
namespace {

std::vector<double> fe16_couplings() {
  std::vector<double> j = lsms::fe_reference_exchange();
  for (double& v : j) v *= lsms::fe_exchange_energy_scale;
  return j;
}

HeisenbergEnergy fe16_energy() {
  return HeisenbergEnergy(heisenberg::HeisenbergModel(
      lattice::make_fe_supercell(2), fe16_couplings()));
}

WangLandauConfig fe16_config(const HeisenbergEnergy& energy,
                             std::uint64_t max_steps) {
  Rng rng(5);
  WangLandauConfig config;
  config.grid =
      thermal_window(energy, energy.model().ferromagnetic_energy(), 150.0, rng);
  config.n_walkers = 8;
  config.check_interval = 2000;
  config.flatness = 0.8;
  config.max_iteration_steps = 1000000;
  config.max_steps = max_steps;
  return config;
}

struct RunOutput {
  std::vector<double> ln_g;
  std::vector<std::uint64_t> histogram;
  DriverStats stats;
  SpeculationStats speculation;
};

RunOutput run_driver(EnergyService& service, std::size_t n_sites,
                     const WangLandauConfig& config, std::uint64_t seed) {
  WlDriver driver(n_sites, service, config,
                  std::make_unique<HalvingSchedule>(1.0, 1e-8), Rng(seed));
  RunOutput out;
  out.stats = driver.run();
  out.ln_g = driver.dos().ln_g_values();
  out.histogram = driver.dos().histogram();
  if (const auto* speculative =
          dynamic_cast<const SpeculativeEnergyService*>(&service))
    out.speculation = speculative->stats();
  return out;
}

// --- Bit-identity property: band 0 / audit 1.0 == plain driver -----------

TEST(Speculate, BandZeroAuditOneIsBitIdenticalOverSynchronousService) {
  const lattice::Structure structure = lattice::make_fe_supercell(2);
  HeisenbergEnergy energy = fe16_energy();
  const WangLandauConfig config = fe16_config(energy, 20000);

  comm::EnergyServiceSpec plain;
  plain.kind = comm::ServiceKind::kSynchronous;
  plain.energy = &energy;
  const auto plain_service = comm::make_energy_service(plain);
  const RunOutput a = run_driver(*plain_service, 16, config, 9001);

  SpeculationConfig speculation;
  speculation.band = 0.0;
  speculation.audit_fraction = 1.0;
  SpeculativeEnergyService spec_service(comm::make_energy_service(plain),
                                        Speculator(structure, speculation));
  const RunOutput b = run_driver(spec_service, 16, config, 9001);

  // Bit-for-bit: the decorator dispatched every hinted move exactly, in
  // submission order, consumed no RNG, and returned authoritative energies.
  EXPECT_EQ(a.ln_g, b.ln_g);
  EXPECT_EQ(a.histogram, b.histogram);
  EXPECT_EQ(a.stats.total_steps, b.stats.total_steps);
  EXPECT_EQ(a.stats.accepted_steps, b.stats.accepted_steps);
  EXPECT_EQ(a.stats.out_of_range, b.stats.out_of_range);

  // With audit_fraction 1 every screened move was audited, none speculated.
  EXPECT_GT(b.speculation.proposed, 0u);
  EXPECT_EQ(b.speculation.speculated, 0u);
  EXPECT_EQ(b.speculation.hit_rate(), 0.0);
}

TEST(Speculate, BandZeroAuditOneIsBitIdenticalOverDistributedService) {
  // One walker + one group keeps the in-process distributed service's
  // retrieve order deterministic, so == comparison across runs is sound.
  const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(1), lsms::fe_lsms_parameters_fast());
  const LsmsEnergy energy(solver);
  const std::size_t n = solver->n_atoms();

  Rng rng(3);
  const double e_fm = energy.total_energy(spin::MomentConfiguration::ferromagnetic(n));
  double e_max = -1e300;
  for (int k = 0; k < 8; ++k)
    e_max = std::max(
        e_max, energy.total_energy(spin::MomentConfiguration::random(n, rng)));

  WangLandauConfig config;
  config.grid.e_min = e_fm - 0.002;
  config.grid.e_max = e_max + 0.01;
  config.grid.bins = 48;
  config.grid.kernel_width_fraction = 0.5 / 48.0;
  config.n_walkers = 1;
  config.max_steps = 400;
  config.check_interval = 100;

  comm::EnergyServiceSpec plain;
  plain.kind = comm::ServiceKind::kDistributed;
  plain.energy = &energy;
  plain.distributed.n_groups = 1;
  plain.distributed.group_size = 1;
  plain.distributed.transport = comm::Transport::kInProcess;
  RunOutput a;
  {
    const auto service = comm::make_energy_service(plain);
    a = run_driver(*service, n, config, 17);
  }

  comm::EnergyServiceSpec spec = plain;
  spec.speculate = true;
  spec.speculation.band = 0.0;
  spec.speculation.audit_fraction = 1.0;
  // The factory takes the surrogate's lattice from the LsmsEnergy.
  RunOutput b;
  {
    const auto service = comm::make_energy_service(spec);
    b = run_driver(*service, n, config, 17);
  }

  EXPECT_EQ(a.ln_g, b.ln_g);
  EXPECT_EQ(a.histogram, b.histogram);
  EXPECT_EQ(a.stats.total_steps, b.stats.total_steps);
  EXPECT_EQ(a.stats.accepted_steps, b.stats.accepted_steps);
  EXPECT_GT(b.speculation.proposed, 0u);
  EXPECT_EQ(b.speculation.speculated, 0u);
}

// --- Retry accounting: resubmissions never re-count as proposals ----------

TEST(Speculate, FailedResultRetriesDoNotInflateHitRate) {
  const lattice::Structure structure = lattice::make_fe_supercell(2);
  HeisenbergEnergy energy = fe16_energy();
  const WangLandauConfig config = fe16_config(energy, 20000);

  SpeculationConfig speculation;
  speculation.band = 2.0;
  speculation.audit_fraction = 0.1;
  speculation.min_audits = 8;
  speculation.initial_j = fe16_couplings();
  // The failure decorator sits inside the screen: hits never fail.
  SpeculativeEnergyService service(
      std::make_unique<parallel::FailureInjectingService>(
          std::make_unique<SynchronousEnergyService>(energy), 0.1,
          Rng(0xfa17)),
      Speculator(structure, std::move(speculation)));
  const RunOutput out = run_driver(service, 16, config, 23);
  const SpeculationStats& s = out.speculation;

  // At a 10 % loss rate resubmissions dwarf the walker count, so if a retry
  // were re-counted as a proposal the bound below would be violated by a
  // wide margin. Each unique proposal yields at most one processed result;
  // only requests still in flight at drain time (<= one per walker) are
  // proposed but never processed.
  ASSERT_GT(out.stats.resubmissions, config.n_walkers);
  EXPECT_EQ(s.retries, out.stats.resubmissions);
  EXPECT_GE(s.proposed + s.forwarded,
            static_cast<std::uint64_t>(out.stats.total_steps));
  EXPECT_LE(s.proposed + s.forwarded,
            static_cast<std::uint64_t>(out.stats.total_steps) +
                2 * config.n_walkers);

  // Role ledger: every screened move took exactly one path.
  EXPECT_EQ(s.proposed, s.speculated + s.audits + s.boundary_exact +
                            s.warmup_exact + s.tripped_exact);
  EXPECT_GE(s.hit_rate(), 0.0);
  EXPECT_LE(s.hit_rate(), 1.0);
}

// --- Speculator unit level: refit cadence, trip, recovery -----------------

/// Drives the decorator directly with hand-built hinted requests so the
/// residual stream is fully controlled (the driver is not involved).
struct Harness {
  lattice::Structure structure = lattice::make_fe_supercell(2);
  HeisenbergEnergy energy{
      heisenberg::HeisenbergModel(structure, fe16_couplings())};
  DosGrid dos;
  SpeculativeEnergyService service;
  Rng rng{71};
  std::uint64_t next_ticket = 1;

  explicit Harness(SpeculationConfig config)
      : dos(DosGridConfig{-1.0, 1.0, 101, 0.0025}),
        service(std::make_unique<SynchronousEnergyService>(energy),
                Speculator(structure, std::move(config))) {
    service.attach_dos(&dos);
  }

  /// Submits one single-site move from a fresh random configuration and
  /// retrieves its result. `energy_offset` shifts the hint's current_energy
  /// away from the truth, forcing a residual of that size.
  EnergyResult step(double energy_offset = 0.0) {
    spin::MomentConfiguration base = spin::MomentConfiguration::random(16, rng);
    const std::size_t site = rng.uniform_index(16);
    const Vec3 old_direction = base[site];
    const double e_old = energy.total_energy(base);
    base.set(site, spin::MomentConfiguration::random(1, rng)[0]);
    EnergyRequest request{0, next_ticket++, base};
    request.hint.valid = true;
    request.hint.current_energy = e_old + energy_offset;
    request.hint.site = site;
    request.hint.old_direction = old_direction;
    service.submit(std::move(request));
    return service.retrieve();
  }
};

TEST(Speculate, RefitCadenceLearnsCouplingsFromScratch) {
  SpeculationConfig config;
  config.refit_interval = 8;
  config.min_audits = 1000000;  // stay in warmup: every move measured
  config.residual_window = 1000000;
  config.initial_j = {};  // zero couplings: surrogate knows nothing
  Harness h(config);

  for (int k = 0; k < 7; ++k) h.step();
  EXPECT_EQ(h.service.stats().refits, 0u);  // cadence not reached yet
  h.step();
  // 8th measurement: refit runs, and against an exactly-Heisenberg backend
  // the regression recovers the true couplings (and is adopted, since its
  // in-window rms beats the zero-coupling model's).
  ASSERT_EQ(h.service.stats().refits, 1u);
  const std::vector<double> truth = fe16_couplings();
  const std::vector<double>& fitted = h.service.speculator().j_shells();
  ASSERT_EQ(fitted.size(), truth.size());
  for (std::size_t s = 0; s < truth.size(); ++s)
    EXPECT_NEAR(fitted[s], truth[s], 1e-8);

  for (int k = 0; k < 16; ++k) h.step();
  EXPECT_EQ(h.service.stats().refits + h.service.stats().refits_rejected, 3u);
  // Post-adoption residuals are at numerical noise level.
  EXPECT_LT(h.service.speculator().residual_rms(), 1e-6);
}

TEST(Speculate, ErrorBudgetTripsToExactOnlyAndRecovers) {
  SpeculationConfig config;
  config.error_budget = 1e-6;
  config.min_audits = 4;
  config.refit_interval = 0;  // isolate the trip logic from refits
  config.audit_fraction = 0.0;
  config.initial_j = fe16_couplings();  // perfect surrogate: honest hints
                                        // give ~0 residual
  Harness h(config);

  // Warmup with poisoned hints: every residual is ~1e-3, far over budget.
  for (int k = 0; k < 4; ++k) h.step(1e-3);
  EXPECT_TRUE(h.service.speculator().tripped());
  EXPECT_EQ(h.service.stats().trips, 1u);
  EXPECT_EQ(h.service.stats().untrips, 0u);

  // While tripped every move is dispatched exactly (role ledger moves only
  // through tripped_exact), and honest hints refill the residual window.
  const std::uint64_t speculated_before = h.service.stats().speculated;
  for (int k = 0; k < 4; ++k) h.step();
  EXPECT_EQ(h.service.stats().speculated, speculated_before);
  EXPECT_GE(h.service.stats().tripped_exact, 4u);

  // A fresh window inside the budget un-trips the service...
  EXPECT_FALSE(h.service.speculator().tripped());
  EXPECT_EQ(h.service.stats().untrips, 1u);

  // ...and with a flat ln g (fresh grid) every subsequent in-window move is
  // a deterministic accept, so the surrogate resolves it without an exact
  // call and returns its predicted energy.
  const EnergyResult result = h.step();
  EXPECT_GT(h.service.stats().speculated, speculated_before);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(h.service.outstanding(), 0u);
}

TEST(Speculate, AuditCadenceIsDeterministicAndCountsOnce) {
  SpeculationConfig config;
  config.min_audits = 4;
  config.audit_fraction = 0.5;  // every second resolvable move audited
  config.refit_interval = 0;
  config.error_budget = 0.0;
  config.initial_j = fe16_couplings();
  Harness h(config);

  for (int k = 0; k < 4; ++k) h.step();  // warmup
  const std::uint64_t before = h.service.stats().proposed;
  for (int k = 0; k < 10; ++k) h.step();
  const SpeculationStats& s = h.service.stats();
  EXPECT_EQ(s.proposed - before, 10u);
  // Flat fresh ln g: every move resolvable, so the 0.5 cadence alternates
  // audit / hit exactly.
  EXPECT_EQ(s.audits, 5u);
  EXPECT_EQ(s.speculated, 5u);
  EXPECT_EQ(s.proposed, s.speculated + s.audits + s.boundary_exact +
                            s.warmup_exact + s.tripped_exact);
}

TEST(Speculate, ConfigValidationRejectsNonsense) {
  const lattice::Structure structure = lattice::make_fe_supercell(1);
  SpeculationConfig bad_band;
  bad_band.band = -1.0;
  EXPECT_THROW(Speculator(structure, bad_band), Error);
  SpeculationConfig bad_audit;
  bad_audit.audit_fraction = 1.5;
  EXPECT_THROW(Speculator(structure, bad_audit), Error);
  SpeculationConfig bad_shells;
  bad_shells.n_shells = 0;
  EXPECT_THROW(Speculator(structure, bad_shells), Error);
}

}  // namespace
}  // namespace wlsms::wl
