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
///  - ShardRequest scatters one whole configuration to one of a group's
///    ranks, with an explicit list of the zones (LIZ centre atoms) that
///    rank solves — every zone for a walker's first evaluation, afterwards
///    only the zones whose LIZ contains a moved site.
///  - ShardResult gathers the listed zones' energies e_i back; the
///    controller fills every other zone from its cached evaluation and
///    sums in atom order, which is what makes the distributed total
///    bit-identical to the serial solver.
///
/// Zone lists are non-empty and strictly ascending (sorted, no repeats);
/// the decoders reject anything else, and a request's zones must also lie
/// below its configuration's size.
///
/// `attempt` versions a scatter: after a worker death the controller
/// re-scatters the same ticket with attempt+1, and stale results from the
/// previous scatter are recognizably obsolete.

#include <cstdint>
#include <vector>

#include "common/serial.hpp"
#include "obs/trace.hpp"
#include "spin/moments.hpp"

namespace wlsms::comm {

/// Application-level message tags (Message::tag). Tags 1 and 2 (the retired
/// whole energy request/result) and 5 (the retired shard eviction) are not
/// reused.
enum Tag : std::uint32_t {
  kTagShardRequest = 3,
  kTagShardResult = 4,
};

/// Scatter of one configuration to one rank, with the zones it solves.
struct ShardRequest {
  std::uint64_t ticket = 0;   ///< driver-level request id
  std::uint32_t attempt = 0;  ///< scatter generation (reroute bumps it)
  /// Originating span of the submitted request: the worker's shard-solve
  /// span adopts it, so a merged trace nests the remote solve under the
  /// driver span that caused it. Zero/zero when tracing is off.
  obs::TraceContext trace = {};
  std::vector<std::uint64_t> zones;  ///< the zones this rank solves
  spin::MomentConfiguration config;  ///< the whole configuration
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

}  // namespace wlsms::comm
