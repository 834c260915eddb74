#include "wl/joint_wl.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace wlsms::wl {

JointWangLandau::JointWangLandau(const EnergyFunction& energy,
                                 const JointWangLandauConfig& config,
                                 std::unique_ptr<ModificationSchedule> schedule,
                                 Rng rng)
    : energy_(energy), engine_(config, 1, std::move(schedule), rng) {
  config_w_ =
      spin::MomentConfiguration::random(energy_.n_sites(), engine_.rng());
  at_ = {energy_.total_energy(config_w_), config_w_.magnetization_z()};
  WLSMS_EXPECTS(dos().contains(at_));
}

bool JointWangLandau::step() {
  if (engine_.done()) return false;

  const spin::TrialMove move = engine_.propose(config_w_);
  // M_z after a single-moment update follows from the old total moment.
  const double n = static_cast<double>(config_w_.size());
  const JointDos::Point to{
      energy_.energy_after_move(config_w_, move, at_.e),
      at_.m + (move.new_direction.normalized().z - config_w_[move.site].z) / n};
  if (engine_.accept(at_, to)) {
    config_w_.set(move.site, move.new_direction);
    at_ = to;
  }
  if (engine_.refresh_due())
    at_ = {energy_.total_energy(config_w_), config_w_.magnetization_z()};
  engine_.visit(at_);

  // Flatness over currently-hit cells, guarded against a spuriously shrunken
  // support: the hit-cell count must stay near the previous iteration's (a
  // trapped walk covers far fewer cells and must not look flat just because
  // its few cells are even).
  std::size_t hit = 0;
  const bool cut = engine_.chance([&](const JointDos& grid, double flatness) {
    hit = grid.hit_cells();
    const bool coverage_ok =
        previous_hit_cells_ == 0 || hit >= (3 * previous_hit_cells_) / 4;
    return coverage_ok && grid.is_flat(flatness);
  });
  if (cut) previous_hit_cells_ = std::max(previous_hit_cells_, hit);
  return !engine_.done();
}

const WangLandauStats& JointWangLandau::run() {
  engine_.run([this] { step(); });
  return stats();
}

}  // namespace wlsms::wl
