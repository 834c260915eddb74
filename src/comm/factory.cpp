#include "comm/factory.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "parallel/async_service.hpp"
#include "parallel/failure.hpp"

namespace wlsms::comm {

std::unique_ptr<wl::EnergyService> make_energy_service(
    const EnergyServiceSpec& spec) {
  if (spec.energy == nullptr && spec.kind != ServiceKind::kServeClient)
    throw Error("make_energy_service: spec.energy is required");
  if (!(spec.failure_probability >= 0.0 && spec.failure_probability < 1.0))
    throw Error("make_energy_service: failure_probability outside [0, 1)");

  std::unique_ptr<wl::EnergyService> service;
  switch (spec.kind) {
    case ServiceKind::kSynchronous:
      service = std::make_unique<wl::SynchronousEnergyService>(*spec.energy);
      break;
    case ServiceKind::kReordering:
      service = std::make_unique<wl::ReorderingEnergyService>(
          *spec.energy, Rng(spec.reorder_seed));
      break;
    case ServiceKind::kAsyncThreads: {
      if (spec.n_instances < 1)
        throw Error("make_energy_service: n_instances must be >= 1");
      service = std::make_unique<parallel::AsyncEnergyService>(
          *spec.energy, spec.n_instances);
      break;
    }
    case ServiceKind::kDistributed: {
      const auto* lsms_energy =
          dynamic_cast<const wl::LsmsEnergy*>(spec.energy);
      if (lsms_energy == nullptr)
        throw Error(
            "make_energy_service: kDistributed requires an LsmsEnergy "
            "backend (workers run per-atom LIZ shards of its solver)");
      service = std::make_unique<DistributedEnergyService>(
          lsms_energy->solver_ptr(), spec.distributed);
      break;
    }
    case ServiceKind::kServeClient: {
      if (spec.serve_address.empty())
        throw Error("make_energy_service: kServeClient requires serve_address");
      service = std::make_unique<serve::ServeClient>(spec.serve_address,
                                                     spec.serve_client);
      break;
    }
  }
  if (service == nullptr)
    throw Error("make_energy_service: unknown service kind");

  if (spec.failure_probability > 0.0)
    service = std::make_unique<parallel::FailureInjectingService>(
        std::move(service), spec.failure_probability, Rng(spec.failure_seed));

  if (spec.speculate) {
    const lattice::Structure* structure = spec.speculation_structure;
    if (structure == nullptr)
      if (const auto* lsms_energy =
              dynamic_cast<const wl::LsmsEnergy*>(spec.energy))
        structure = &lsms_energy->solver().structure();
    if (structure == nullptr)
      throw Error(
          "make_energy_service: speculation requires speculation_structure "
          "(or an LsmsEnergy backend to take the lattice from)");
    service = std::make_unique<wl::SpeculativeEnergyService>(
        std::move(service), wl::Speculator(*structure, spec.speculation));
  }
  return service;
}

}  // namespace wlsms::comm
