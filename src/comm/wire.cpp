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
  e.put_u64(request.session);
  e.put_u64(request.trace.trace_id);
  e.put_u64(request.trace.span_id);
  e.put_u64(request.walker);
  put_zones(e, request.zones);
  e.put_u8(static_cast<std::uint8_t>(request.kind));
  if (request.kind == ShardRequest::ConfigKind::kFull) {
    spin::encode_moments(e, request.full);
  } else {
    e.put_u64(request.n_total_atoms);
    e.put_u64(request.moved_sites.size());
    for (const MovedSite& m : request.moved_sites) {
      e.put_u64(m.site);
      e.put_double(m.direction.x);
      e.put_double(m.direction.y);
      e.put_double(m.direction.z);
    }
  }
  return e.take();
}

ShardRequest decode_shard_request(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kShardRequest);
  ShardRequest request;
  request.ticket = d.get_u64();
  request.attempt = d.get_u32();
  request.session = d.get_u64();
  request.trace.trace_id = d.get_u64();
  request.trace.span_id = d.get_u64();
  request.walker = d.get_u64();
  request.zones = get_zones(d, "shard-request");
  const std::uint8_t kind = d.get_u8();
  if (kind > 1) throw SerializationError("corrupt shard-request config kind");
  request.kind = static_cast<ShardRequest::ConfigKind>(kind);
  if (request.kind == ShardRequest::ConfigKind::kFull) {
    request.full = spin::decode_moments(d);
    request.n_total_atoms = request.full.size();
  } else {
    request.n_total_atoms = d.get_u64();
    const std::uint64_t count = d.get_u64();
    d.expect_sequence(count, 8 + 3 * sizeof(double));
    request.moved_sites.resize(static_cast<std::size_t>(count));
    for (MovedSite& m : request.moved_sites) {
      m.site = d.get_u64();
      m.direction.x = d.get_double();
      m.direction.y = d.get_double();
      m.direction.z = d.get_double();
      if (m.site >= request.n_total_atoms)
        throw SerializationError("corrupt shard-request moved site index");
      if (!(m.direction.norm2() > 0.0))
        throw SerializationError("corrupt shard-request direction");
    }
  }
  // The list is strictly ascending, so its last entry is its largest.
  if (request.zones.back() >= request.n_total_atoms)
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

std::vector<std::byte> encode_shard_evict(const ShardEvict& evict) {
  Encoder e;
  serial::write_header(e, PayloadKind::kShardEvict);
  e.put_u64(evict.session);
  return e.take();
}

ShardEvict decode_shard_evict(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kShardEvict);
  ShardEvict evict;
  evict.session = d.get_u64();
  d.expect_end();
  return evict;
}

std::vector<std::byte> encode_energy_request(const wl::EnergyRequest& request) {
  Encoder e;
  serial::write_header(e, PayloadKind::kEnergyRequest);
  e.put_u64(request.walker);
  e.put_u64(request.ticket);
  e.put_u64(request.session);
  e.put_u64(request.trace.trace_id);
  e.put_u64(request.trace.span_id);
  spin::encode_moments(e, request.config);
  return e.take();
}

wl::EnergyRequest decode_energy_request(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kEnergyRequest);
  wl::EnergyRequest request;
  request.walker = static_cast<std::size_t>(d.get_u64());
  request.ticket = d.get_u64();
  request.session = d.get_u64();
  request.trace.trace_id = d.get_u64();
  request.trace.span_id = d.get_u64();
  request.config = spin::decode_moments(d);
  d.expect_end();
  return request;
}

std::vector<std::byte> encode_energy_result(const wl::EnergyResult& result) {
  Encoder e;
  serial::write_header(e, PayloadKind::kEnergyResult);
  e.put_u64(result.walker);
  e.put_u64(result.ticket);
  e.put_double(result.energy);
  e.put_u8(result.failed ? 1 : 0);
  return e.take();
}

wl::EnergyResult decode_energy_result(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kEnergyResult);
  wl::EnergyResult result;
  result.walker = static_cast<std::size_t>(d.get_u64());
  result.ticket = d.get_u64();
  result.energy = d.get_double();
  const std::uint8_t failed = d.get_u8();
  if (failed > 1) throw SerializationError("corrupt energy-result flag");
  result.failed = failed != 0;
  d.expect_end();
  return result;
}

}  // namespace wlsms::comm
