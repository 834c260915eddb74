#include "comm/wire.hpp"

#include <string>

#include "spin/serialize.hpp"

namespace wlsms::comm {

using serial::Decoder;
using serial::Encoder;
using serial::PayloadKind;
using serial::SerializationError;

namespace {

void put_zones(Encoder& e, const std::vector<std::uint64_t>& zones) {
  e.put_u64(zones.size());
  for (std::uint64_t zone : zones) e.put_u64(zone);
}

/// Reads a zone list and rejects an empty one or one that is not strictly
/// ascending, so every consumer can index by it without re-checking order
/// or repeats.
std::vector<std::uint64_t> get_zones(Decoder& d, const char* what) {
  const std::uint64_t count = d.get_u64();
  d.expect_sequence(count, sizeof(std::uint64_t));
  if (count == 0)
    throw SerializationError(std::string("empty ") + what + " zone list");
  std::vector<std::uint64_t> zones(static_cast<std::size_t>(count));
  for (std::size_t k = 0; k < zones.size(); ++k) {
    zones[k] = d.get_u64();
    if (k > 0 && zones[k] <= zones[k - 1])
      throw SerializationError(std::string(what) +
                               " zone list unsorted or repeated");
  }
  return zones;
}

}  // namespace

std::vector<std::byte> encode_shard_request(const ShardRequest& request) {
  Encoder e;
  serial::write_header(e, PayloadKind::kShardRequest);
  e.put_u64(request.ticket);
  e.put_u32(request.attempt);
  e.put_u64(request.trace.trace_id);
  e.put_u64(request.trace.span_id);
  put_zones(e, request.zones);
  spin::encode_moments(e, request.config);
  return e.take();
}

ShardRequest decode_shard_request(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kShardRequest);
  ShardRequest request;
  request.ticket = d.get_u64();
  request.attempt = d.get_u32();
  request.trace.trace_id = d.get_u64();
  request.trace.span_id = d.get_u64();
  request.zones = get_zones(d, "shard-request");
  request.config = spin::decode_moments(d);
  // The list is strictly ascending, so its last entry is its largest.
  if (request.zones.back() >= request.config.size())
    throw SerializationError("shard-request zone index out of range");
  d.expect_end();
  return request;
}

std::vector<std::byte> encode_shard_result(const ShardResult& result) {
  Encoder e;
  serial::write_header(e, PayloadKind::kShardResult);
  e.put_u64(result.ticket);
  e.put_u32(result.attempt);
  put_zones(e, result.zones);
  e.put_u64(result.energies.size());
  for (double v : result.energies) e.put_double(v);
  return e.take();
}

ShardResult decode_shard_result(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kShardResult);
  ShardResult result;
  result.ticket = d.get_u64();
  result.attempt = d.get_u32();
  result.zones = get_zones(d, "shard-result");
  const std::uint64_t count = d.get_u64();
  if (count != result.zones.size())
    throw SerializationError("shard-result energy count differs from its "
                             "zone list");
  d.expect_sequence(count, sizeof(double));
  result.energies.resize(static_cast<std::size_t>(count));
  for (double& v : result.energies) v = d.get_double();
  d.expect_end();
  return result;
}

}  // namespace wlsms::comm
