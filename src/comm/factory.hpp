#pragma once

/// \file factory.hpp
/// The one way to build an EnergyService for a topology the CLI and the
/// end-to-end benchmark run. Each realization of the paper's driver <->
/// LSMS-instance boundary — the synchronous reference, the group-sharded
/// distributed service, and the serve-daemon client — is constructed from
/// one spec, so call sites pick a topology by data instead of by type. The
/// speculative mixed-fidelity screen can wrap any of them; it takes its
/// lattice from the LsmsEnergy backend. Test doubles (the deterministic
/// reorderer, failure injection) are built directly, not through here.
///
/// This header lives under src/comm/ but builds into its own library,
/// wlsms_factory: the serve daemon links wlsms_comm, and the factory links
/// the serve *client*, so folding it into wlsms_comm would close a
/// dependency cycle.

#include <memory>
#include <string>

#include "comm/distributed_service.hpp"
#include "serve/client.hpp"
#include "wl/energy_function.hpp"
#include "wl/energy_service.hpp"
#include "wl/speculator.hpp"

namespace wlsms::comm {

/// Which realization of the EnergyService boundary to build.
enum class ServiceKind {
  kSynchronous,  ///< in-order, single-threaded; the validation reference
  kDistributed,  ///< group-sharded over a Communicator (this module)
  kServeClient,  ///< remote `wlsms serve` daemon (serve::ServeClient)
};

/// Everything needed to build any service.
struct EnergyServiceSpec {
  ServiceKind kind = ServiceKind::kSynchronous;

  /// The energy backend. Required for every kind except kServeClient
  /// (whose backend is the daemon's); for kDistributed it must be (or wrap)
  /// a wl::LsmsEnergy, because the workers run per-atom LIZ shards of its
  /// solver. Must outlive the returned service.
  const wl::EnergyFunction* energy = nullptr;

  DistributedConfig distributed;  ///< kDistributed: topology + transport

  std::string serve_address;          ///< kServeClient: daemon host:port
  serve::ClientOptions serve_client;  ///< kServeClient: the tenant name

  /// When set, the built service is wrapped in a
  /// wl::SpeculativeEnergyService screening proposals with a Heisenberg
  /// surrogate on the lattice of `energy`, which must then be an
  /// LsmsEnergy. Off by default: exact mode stays bit-identical.
  bool speculate = false;
  wl::SpeculationConfig speculation;
};

/// Builds the service described by `spec`. Throws wlsms::Error on an
/// unsatisfiable spec (no energy backend, a distributed or speculative
/// spec whose backend is not LSMS, a serve client without an address) and
/// comm::CommError when the serve client cannot reach its daemon.
std::unique_ptr<wl::EnergyService> make_energy_service(
    const EnergyServiceSpec& spec);

}  // namespace wlsms::comm
