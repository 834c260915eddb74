#pragma once

// Shared by the REWL and multimaster suites: an energy backend that starts
// failing part-way through a run, to check that a failure inside a window
// runner's round reaches the caller instead of terminating the process.
#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "wl/energy_function.hpp"

namespace wlsms::wl {

/// Thrown by ThrowingEnergy; distinct from every library error type.
struct BackendFailure : std::runtime_error {
  BackendFailure() : std::runtime_error("energy backend failed") {}
};

/// Forwards to `inner` until `threshold` energy_after_move calls have been
/// made (counted across every calling thread), then throws BackendFailure
/// from every further energy_after_move. total_energy never throws, so
/// walker seeding at construction is unaffected.
class ThrowingEnergy final : public EnergyFunction {
 public:
  ThrowingEnergy(const EnergyFunction& inner, std::uint64_t threshold)
      : inner_(inner), threshold_(threshold) {}

  std::size_t n_sites() const override { return inner_.n_sites(); }
  double total_energy(const spin::MomentConfiguration& moments) const override {
    return inner_.total_energy(moments);
  }
  double energy_after_move(const spin::MomentConfiguration& moments,
                           const spin::TrialMove& move,
                           double current_energy) const override {
    if (calls_.fetch_add(1) >= threshold_) throw BackendFailure();
    return inner_.energy_after_move(moments, move, current_energy);
  }

  std::uint64_t calls() const { return calls_.load(); }

 private:
  const EnergyFunction& inner_;
  std::uint64_t threshold_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

}  // namespace wlsms::wl
