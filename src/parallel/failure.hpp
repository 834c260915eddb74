#pragma once

/// \file failure.hpp
/// Failure injection for the resilience path. The paper's outlook (§V)
/// plans to "make the WL method resilient to the loss of processing
/// nodes"; the WlDriver implements that by resubmitting failed results,
/// and this decorator provides the faults to survive: each *submitted*
/// request is lost with a configurable probability, emulating an LSMS
/// instance dying mid-calculation. A lost request never reaches the inner
/// service; it surfaces as a `failed` result from retrieve() and stays
/// counted in outstanding() until then, so the protocol invariant
/// "submitted = retrieved" holds and the driver can resubmit the same
/// configuration (possibly losing it again — retries are independent).

#include <deque>
#include <memory>

#include "common/rng.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::parallel {

/// Decorator that randomly loses submitted requests from the inner service
/// it owns.
class FailureInjectingService final : public wl::EnergyService {
 public:
  /// Each submission is independently lost with `loss_probability`.
  FailureInjectingService(std::unique_ptr<wl::EnergyService> inner,
                          double loss_probability, Rng rng);

  void submit(wl::EnergyRequest request) override;

  /// Returns a pending failure notice if one exists, otherwise forwards to
  /// the inner service.
  wl::EnergyResult retrieve() override;

  /// Lost-but-unreported requests count as outstanding: the failure notice
  /// is still owed to the caller. (Forwarding to the inner service alone
  /// would undercount and let a driver drain loop exit with failures —
  /// and therefore resubmittable work — still queued.)
  std::size_t outstanding() const override {
    return inner_->outstanding() + failed_.size();
  }

  std::uint64_t injected_failures() const { return injected_; }

 private:
  std::unique_ptr<wl::EnergyService> inner_;
  double loss_probability_;
  Rng rng_;
  std::deque<wl::EnergyResult> failed_;  ///< failure notices not yet retrieved
  std::uint64_t injected_ = 0;
};

}  // namespace wlsms::parallel
