#include "comm/factory.hpp"

#include <utility>

#include "common/error.hpp"

namespace wlsms::comm {

std::unique_ptr<wl::EnergyService> make_energy_service(
    const EnergyServiceSpec& spec) {
  if (spec.energy == nullptr && spec.kind != ServiceKind::kServeClient)
    throw Error("make_energy_service: spec.energy is required");
  const auto* lsms_energy = dynamic_cast<const wl::LsmsEnergy*>(spec.energy);

  std::unique_ptr<wl::EnergyService> service;
  switch (spec.kind) {
    case ServiceKind::kSynchronous:
      service = std::make_unique<wl::SynchronousEnergyService>(*spec.energy);
      break;
    case ServiceKind::kDistributed: {
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

  if (spec.speculate) {
    if (lsms_energy == nullptr)
      throw Error(
          "make_energy_service: speculation requires an LsmsEnergy backend "
          "to take the lattice from");
    service = std::make_unique<wl::SpeculativeEnergyService>(
        std::move(service),
        wl::Speculator(lsms_energy->solver().structure(), spec.speculation));
  }
  return service;
}

}  // namespace wlsms::comm
