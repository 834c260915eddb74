#pragma once

/// \file wire.hpp
/// The versioned wire protocol of the distributed energy service: what the
/// controller and the worker ranks of an LSMS group actually say to each
/// other. Every payload is framed by the shared serial schema (magic +
/// schema version + payload kind), so a wire message and a checkpoint are
/// the same dialect; truncated or corrupted buffers throw
/// serial::SerializationError and can never crash the decoder.
///
/// The group protocol mirrors the paper's Fig. 3 communication pattern:
///  - ShardRequest scatters one configuration over a group's ranks, each
///    rank owning an explicit list of the zones (LIZ centre atoms) to
///    solve — every zone for a walker's first evaluation, afterwards only
///    the zones whose LIZ contains a moved site. The configuration travels
///    either whole (kFull) or as the moved-site delta against the
///    configuration the SAME rank saw last for that walker (kDelta) — the
///    t-matrix-update scatter of §II-C, since a one-moment move
///    invalidates exactly one site's t-matrix.
///  - ShardResult gathers the listed zones' energies e_i back; the
///    controller fills every other zone from its cached evaluation and
///    sums in atom order, which is what makes the distributed total
///    bit-identical to the serial solver.
///
/// Zone lists are non-empty and strictly ascending (sorted, no repeats);
/// the decoders reject anything else, and a request's zones must also lie
/// below its atom count.
///
/// `attempt` versions a scatter: after a worker death the controller
/// re-scatters the same ticket with attempt+1, and stale results from the
/// previous scatter are recognizably obsolete.

#include <cstdint>
#include <vector>

#include "common/serial.hpp"
#include "common/vec3.hpp"
#include "obs/trace.hpp"
#include "spin/moments.hpp"

namespace wlsms::comm {

/// Application-level message tags (Message::tag). Tags 1 and 2 (the retired
/// whole energy request/result) are not reused.
enum Tag : std::uint32_t {
  kTagShardRequest = 3,
  kTagShardResult = 4,
  kTagShardEvict = 5,
};

/// One site whose moment changed: the unit of the delta scatter.
struct MovedSite {
  std::uint64_t site = 0;
  Vec3 direction;
};

/// Scatter of one configuration shard to one rank.
struct ShardRequest {
  std::uint64_t ticket = 0;   ///< driver-level request id
  std::uint32_t attempt = 0;  ///< scatter generation (reroute bumps it)
  std::uint64_t session = 0;  ///< tenant-session id (0 = single local tenant)
  /// Originating span of the submitted request: the worker's shard-solve
  /// span adopts it, so a merged trace nests the remote solve under the
  /// driver span that caused it. Zero/zero when tracing is off.
  obs::TraceContext trace = {};
  std::uint64_t walker = 0;   ///< with session, keys the worker's config cache
  std::vector<std::uint64_t> zones;  ///< the zones this rank solves

  enum class ConfigKind : std::uint8_t { kFull = 0, kDelta = 1 };
  ConfigKind kind = ConfigKind::kFull;
  /// kFull: the whole configuration (moved_sites empty).
  spin::MomentConfiguration full;
  /// kDelta: changed sites against the rank's cached configuration for
  /// `walker` (full is empty). n_total_atoms lets the worker validate.
  std::vector<MovedSite> moved_sites;
  std::uint64_t n_total_atoms = 0;
};

/// Controller -> worker: forget every delta-cache entry of one tenant
/// session. A daemon multiplexing many short-lived sessions over one
/// service sends this when a session ends, so neither side's per-(session,
/// walker) configuration caches grow without bound under session churn.
struct ShardEvict {
  std::uint64_t session = 0;
};

/// Gather of one shard's zone energies.
struct ShardResult {
  std::uint64_t ticket = 0;
  std::uint32_t attempt = 0;
  std::vector<std::uint64_t> zones;  ///< the zones solved
  std::vector<double> energies;      ///< e_i for each entry of `zones`
};

std::vector<std::byte> encode_shard_request(const ShardRequest&);
ShardRequest decode_shard_request(const std::vector<std::byte>&);

std::vector<std::byte> encode_shard_result(const ShardResult&);
ShardResult decode_shard_result(const std::vector<std::byte>&);

std::vector<std::byte> encode_shard_evict(const ShardEvict&);
ShardEvict decode_shard_evict(const std::vector<std::byte>&);

}  // namespace wlsms::comm
