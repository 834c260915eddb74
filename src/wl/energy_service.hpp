#pragma once

/// \file energy_service.hpp
/// The driver <-> LSMS-instance message protocol.
///
/// In the paper (§II-C, Fig. 3) a single Wang-Landau process submits spin
/// configurations to M independent LSMS instances and receives the energies
/// back "in an order that differs from the one in which they were
/// submitted". EnergyService is that boundary: submit() posts a
/// configuration, retrieve() blocks for the next completed result, with no
/// ordering guarantee. Implementations here are single-threaded (exact and
/// deliberately-reordering variants for tests); src/parallel adds the real
/// thread-pool instance farm and a failure-injecting decorator.

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "spin/moments.hpp"
#include "wl/energy_function.hpp"

namespace wlsms::wl {

/// Move provenance attached to a trial-configuration request: everything a
/// screening decorator (wl/speculator.hpp) needs to price the move with an
/// O(coordination) surrogate instead of a full evaluation. The driver fills
/// it for every trial proposal (it owns the data and the cost is O(1));
/// non-screening services simply ignore it, and it never crosses a wire —
/// the wire codecs ship the plain request, because every inner service only
/// ever sees moves the decorator already chose to evaluate exactly.
struct SpeculationHint {
  bool valid = false;          ///< false for seeds and raw (non-move) evals
  double current_energy = 0.0; ///< energy of the pre-move configuration
  std::size_t site = 0;        ///< the single site the move touched
  Vec3 old_direction;          ///< its direction before the move
};

/// A posted energy calculation.
struct EnergyRequest {
  std::size_t walker = 0;      ///< which walker's configuration this is
  std::uint64_t ticket = 0;    ///< driver-assigned id, echoed in the result
  spin::MomentConfiguration config;
  /// Originating session identity (0 = the single local tenant). Several
  /// tenants may share one service, and each numbers its walkers from zero;
  /// downstream per-walker state — the distributed service's move-local
  /// bases — keys on (session, walker) so equal walker ids cannot alias.
  std::uint64_t session = 0;
  /// Originating span (obs::current_trace_context() at submit time), carried
  /// across process boundaries so worker-rank and daemon spans link under
  /// the driver span in a merged trace. Zero/zero when tracing is off.
  obs::TraceContext trace = {};
  SpeculationHint hint = {};  ///< move provenance for screening decorators
};

/// A completed (or failed) energy calculation.
struct EnergyResult {
  std::size_t walker = 0;
  std::uint64_t ticket = 0;
  double energy = 0.0;
  bool failed = false;  ///< the computing instance died (resilience path)
};

/// Asynchronous energy evaluation boundary.
class EnergyService {
 public:
  virtual ~EnergyService() = default;

  /// Posts a request; never blocks.
  virtual void submit(EnergyRequest request) = 0;

  /// Blocks until some posted request completes and returns its result.
  /// Order is implementation-defined. Calling with nothing outstanding
  /// throws wlsms::Error (every implementation enforces this — there is
  /// nothing to block on, and a silent hang would look like a lost rank).
  virtual EnergyResult retrieve() = 0;

  /// Requests posted but not yet retrieved.
  virtual std::size_t outstanding() const = 0;
};

/// In-order single-threaded service: retrieve() computes and returns the
/// oldest posted request. Deterministic; the validation reference.
class SynchronousEnergyService final : public EnergyService {
 public:
  explicit SynchronousEnergyService(const EnergyFunction& energy);

  void submit(EnergyRequest request) override;
  EnergyResult retrieve() override;
  std::size_t outstanding() const override { return queue_.size(); }

 private:
  const EnergyFunction& energy_;
  std::deque<EnergyRequest> queue_;
};

/// Single-threaded service that returns results in *random* order, emulating
/// the out-of-order arrival of the parallel machine deterministically:
/// retrieve() completes a uniformly random outstanding request.
class ReorderingEnergyService final : public EnergyService {
 public:
  ReorderingEnergyService(const EnergyFunction& energy, Rng rng);

  void submit(EnergyRequest request) override;
  EnergyResult retrieve() override;
  std::size_t outstanding() const override { return buffer_.size(); }

 private:
  const EnergyFunction& energy_;
  Rng rng_;
  std::vector<EnergyRequest> buffer_;
};

}  // namespace wlsms::wl
