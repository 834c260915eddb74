#include "parallel/failure.hpp"

#include <utility>

#include "common/error.hpp"

namespace wlsms::parallel {

FailureInjectingService::FailureInjectingService(
    std::unique_ptr<wl::EnergyService> inner, double loss_probability,
    Rng rng)
    : inner_(std::move(inner)),
      loss_probability_(loss_probability),
      rng_(rng) {
  WLSMS_EXPECTS(inner_ != nullptr);
  WLSMS_EXPECTS(loss_probability >= 0.0 && loss_probability < 1.0);
}

void FailureInjectingService::submit(wl::EnergyRequest request) {
  if (rng_.uniform() < loss_probability_) {
    // The instance assigned this request dies: the configuration is never
    // evaluated, and the master eventually learns via a failure notice.
    ++injected_;
    failed_.push_back({request.walker, request.ticket, 0.0, true});
    return;
  }
  inner_->submit(std::move(request));
}

wl::EnergyResult FailureInjectingService::retrieve() {
  WLSMS_EXPECTS(outstanding() > 0);
  if (!failed_.empty()) {
    const wl::EnergyResult result = failed_.front();
    failed_.pop_front();
    return result;
  }
  return inner_->retrieve();
}

}  // namespace wlsms::parallel
