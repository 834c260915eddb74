#include "wl/driver.hpp"

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "wl/speculator.hpp"

namespace wlsms::wl {

WlDriver::WlDriver(std::size_t n_sites, EnergyService& service,
                   const WangLandauConfig& config,
                   std::unique_ptr<ModificationSchedule> schedule, Rng rng)
    : service_(service),
      engine_(config, config.n_walkers, std::move(schedule), rng) {
  WLSMS_EXPECTS(n_sites >= 1);

  // A speculating service screens proposals against the live ln g estimate;
  // hand it ours. The driver outlives every run() call, so the pointer stays
  // valid for the whole working life of the service.
  if (auto* speculative = dynamic_cast<SpeculativeEnergyService*>(&service))
    speculative->attach_dos(&engine_.grid());

  walkers_.resize(config.n_walkers);
  for (std::size_t w = 0; w < walkers_.size(); ++w) {
    walkers_[w].current =
        spin::MomentConfiguration::random(n_sites, engine_.rng());
    walkers_[w].trial = walkers_[w].current;
    submit(w);
  }
}

void WlDriver::submit_trial(std::size_t w) {
  Walker& walker = walkers_[w];
  walker.pending_move = engine_.propose(walker.current);
  walker.trial = walker.current;
  walker.trial.set(walker.pending_move.site, walker.pending_move.new_direction);
  submit(w);
}

void WlDriver::submit(std::size_t w) {
  Walker& walker = walkers_[w];
  walker.ticket = next_ticket_++;
  EnergyRequest request{w, walker.ticket, walker.trial};
  request.trace = obs::current_trace_context();
  if (walker.seeded)
    request.hint = {true, walker.energy, walker.pending_move.site,
                    walker.current[walker.pending_move.site]};
  service_.submit(std::move(request));
}

void WlDriver::process(const EnergyResult& result) {
  WLSMS_EXPECTS(result.walker < walkers_.size());
  Walker& walker = walkers_[result.walker];
  // Results for superseded tickets cannot occur: one request per walker is
  // in flight at any time.
  WLSMS_EXPECTS(result.ticket == walker.ticket);

  if (result.failed) {
    // Resilience: the computing instance died; repost the same trial. A
    // seeded walker's repost carries the same move provenance, so a
    // screening decorator recognizes it as a retry, not a fresh proposal.
    engine_.note_resubmission();
    submit(result.walker);
    return;
  }

  if (!walker.seeded) {
    // First energy of the walker's starting configuration.
    walker.energy = result.energy;
    WLSMS_EXPECTS(dos().contains(walker.energy));
    walker.seeded = true;
    submit_trial(result.walker);
    return;
  }

  if (engine_.accept(walker.energy, result.energy)) {
    walker.current = walker.trial;
    walker.energy = result.energy;
  }
  engine_.visit(walker.energy);
  engine_.chance();
  submit_trial(result.walker);
}

const DriverStats& WlDriver::run() {
  engine_.run([this] { process(service_.retrieve()); });
  // Drain so the service is idle when we hand it back.
  while (service_.outstanding() > 0) (void)service_.retrieve();
  return stats();
}

}  // namespace wlsms::wl
