// Round-trip property tests for the comm wire protocol (comm/wire): random
// configurations survive encode/decode bit-exactly, and truncated or
// corrupted buffers always throw SerializationError — under asan-ubsan this
// doubles as a proof the decoder cannot read out of bounds or crash.
#include "comm/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "spin/serialize.hpp"

namespace wlsms::comm {
namespace {

using serial::SerializationError;

bool same_bits(const Vec3& a, const Vec3& b) {
  return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

spin::MomentConfiguration random_config(std::size_t n, Rng& rng) {
  return spin::MomentConfiguration::random(n, rng);
}

/// A random non-empty, strictly ascending zone list below `n`.
std::vector<std::uint64_t> random_zones(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> zones;
  for (std::size_t i = 0; i < n; ++i)
    if (rng.uniform_index(2) == 0) zones.push_back(i);
  if (zones.empty()) zones.push_back(rng.uniform_index(n));
  return zones;
}

/// A valid 4-atom request; the rejection tests corrupt its zones.
ShardRequest request_for(std::vector<std::uint64_t> zones) {
  Rng rng(104);
  ShardRequest request;
  request.ticket = 1;
  request.attempt = 1;
  request.zones = std::move(zones);
  request.config = random_config(4, rng);
  return request;
}

ShardResult result_for(std::vector<std::uint64_t> zones) {
  ShardResult result;
  result.ticket = 1;
  result.attempt = 1;
  result.zones = std::move(zones);
  for (std::size_t k = 0; k < result.zones.size(); ++k)
    result.energies.push_back(-0.5 * static_cast<double>(k));
  return result;
}

// ---- round trips ----------------------------------------------------------

TEST(CommWire, ShardRequestFullRoundTripIsBitExact) {
  Rng rng(101);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.uniform_index(40);
    ShardRequest request;
    request.ticket = rng.next();
    request.attempt = static_cast<std::uint32_t>(rng.uniform_index(1u << 30));
    request.zones = random_zones(n, rng);
    request.config = random_config(n, rng);
    request.trace.trace_id = rng.next();
    request.trace.span_id = rng.next();

    const ShardRequest back = decode_shard_request(encode_shard_request(request));
    EXPECT_EQ(back.ticket, request.ticket);
    EXPECT_EQ(back.attempt, request.attempt);
    EXPECT_EQ(back.trace.trace_id, request.trace.trace_id);
    EXPECT_EQ(back.trace.span_id, request.trace.span_id);
    EXPECT_EQ(back.zones, request.zones);
    ASSERT_EQ(back.config.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_TRUE(same_bits(back.config[i], request.config[i]));
  }
}

TEST(CommWire, ShardResultRoundTripIsBitExact) {
  Rng rng(103);
  for (int round = 0; round < 20; ++round) {
    ShardResult result;
    result.ticket = rng.next();
    result.attempt = static_cast<std::uint32_t>(rng.uniform_index(100));
    result.zones = random_zones(1 + rng.uniform_index(64), rng);
    for (std::size_t k = 0; k < result.zones.size(); ++k)
      result.energies.push_back(rng.uniform(-10.0, 10.0));

    const ShardResult back = decode_shard_result(encode_shard_result(result));
    EXPECT_EQ(back.ticket, result.ticket);
    EXPECT_EQ(back.attempt, result.attempt);
    EXPECT_EQ(back.zones, result.zones);
    ASSERT_EQ(back.energies.size(), result.zones.size());
    for (std::size_t k = 0; k < back.energies.size(); ++k)
      EXPECT_TRUE(std::memcmp(&back.energies[k], &result.energies[k],
                              sizeof(double)) == 0);
  }
}

TEST(CommWire, MomentCodecNeverRenormalizes) {
  // The direction (1, 1, 1)/sqrt(3) does not renormalize to itself bitwise;
  // the codec must hand back exactly what was sent.
  Rng rng(105);
  const spin::MomentConfiguration config = random_config(8, rng);
  serial::Encoder encoder;
  spin::encode_moments(encoder, config);
  serial::Decoder decoder(encoder.bytes());
  const spin::MomentConfiguration back = spin::decode_moments(decoder);
  ASSERT_EQ(back.size(), config.size());
  for (std::size_t i = 0; i < config.size(); ++i)
    EXPECT_TRUE(same_bits(back[i], config[i]));
}

// ---- truncation / corruption ---------------------------------------------

TEST(CommWire, EveryTruncationThrows) {
  const std::vector<std::byte> request =
      encode_shard_request(request_for({0, 2, 3}));
  for (std::size_t cut = 0; cut < request.size(); ++cut) {
    const std::vector<std::byte> truncated(
        request.begin(), request.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_shard_request(truncated), SerializationError)
        << "cut at " << cut;
  }

  const std::vector<std::byte> result = encode_shard_result(result_for({1, 5}));
  for (std::size_t cut = 0; cut < result.size(); ++cut) {
    const std::vector<std::byte> truncated(
        result.begin(), result.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_shard_result(truncated), SerializationError)
        << "cut at " << cut;
  }
}

TEST(CommWire, RandomCorruptionThrowsOrDecodesButNeverCrashes) {
  // Flip bytes all over valid buffers: the decoder must either throw
  // SerializationError or produce a (possibly different) valid object —
  // anything else (crash, OOB read under asan, uncaught bad_alloc from a
  // hostile count) fails the test run. Whatever decodes still holds a
  // strictly ascending zone list, in range for requests.
  Rng rng(107);
  const std::vector<std::byte> result =
      encode_shard_result(result_for({0, 1, 2, 3, 5, 8, 13, 21}));
  const std::vector<std::byte> request =
      encode_shard_request(request_for({0, 1, 3}));

  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> corrupt = result;
    const std::size_t where = rng.uniform_index(corrupt.size());
    corrupt[where] ^= static_cast<std::byte>(1 + rng.uniform_index(255));
    try {
      const ShardResult back = decode_shard_result(corrupt);
      EXPECT_TRUE(std::is_sorted(back.zones.begin(), back.zones.end()));
      EXPECT_EQ(back.energies.size(), back.zones.size());
    } catch (const SerializationError&) {
      // expected for most flips
    }

    corrupt = request;
    corrupt[rng.uniform_index(corrupt.size())] ^=
        static_cast<std::byte>(1 + rng.uniform_index(255));
    try {
      const ShardRequest back = decode_shard_request(corrupt);
      ASSERT_FALSE(back.zones.empty());
      EXPECT_LT(back.zones.back(), back.config.size());
    } catch (const SerializationError&) {
    }
  }
}

TEST(CommWire, ZeroDirectionThrows) {
  // The encoder writes any direction it is given, so zero the bytes of the
  // last site's direction in an encoded request: its last 24 bytes.
  std::vector<std::byte> bytes = encode_shard_request(request_for({0, 1}));
  std::fill(bytes.end() - 3 * sizeof(double), bytes.end(), std::byte{0});
  EXPECT_THROW(decode_shard_request(bytes), SerializationError);
}

/// The direction components every decoder must refuse: a zero vector and
/// one NaN, +inf or -inf component.
std::vector<Vec3> corrupt_directions() {
  const double inf = std::numeric_limits<double>::infinity();
  return {Vec3{0.0, 0.0, 0.0},
          Vec3{std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0},
          Vec3{inf, 0.0, 0.0}, Vec3{0.0, -inf, 0.0}};
}

TEST(CommWire, MomentDecoderRejectsZeroAndNonFiniteDirections) {
  for (const Vec3& bad : corrupt_directions()) {
    serial::Encoder encoder;
    encoder.put_u64(2);
    for (const Vec3& d : {Vec3{0.0, 0.0, 1.0}, bad}) {
      encoder.put_double(d.x);
      encoder.put_double(d.y);
      encoder.put_double(d.z);
    }
    serial::Decoder decoder(encoder.bytes());
    EXPECT_THROW(spin::decode_moments(decoder), SerializationError)
        << bad.x << " " << bad.y << " " << bad.z;
  }
}

// ---- invalid zone lists ---------------------------------------------------

TEST(CommWire, ShardRequestWithEmptyZoneListThrows) {
  EXPECT_THROW(decode_shard_request(encode_shard_request(request_for({}))),
               SerializationError);
}

TEST(CommWire, ShardRequestWithUnsortedZoneListThrows) {
  EXPECT_THROW(
      decode_shard_request(encode_shard_request(request_for({0, 2, 1}))),
      SerializationError);
}

TEST(CommWire, ShardRequestWithRepeatedZoneThrows) {
  EXPECT_THROW(
      decode_shard_request(encode_shard_request(request_for({1, 1, 2}))),
      SerializationError);
}

TEST(CommWire, ShardRequestZoneIndexOutOfRangeThrows) {
  // The first index past the configuration, and the value whose
  // "first + count" arithmetic wrapped in the old atom-range check.
  EXPECT_THROW(
      decode_shard_request(encode_shard_request(request_for({0, 4}))),
      SerializationError);
  EXPECT_THROW(decode_shard_request(encode_shard_request(
                   request_for({~std::uint64_t{0}}))),
               SerializationError);
}

TEST(CommWire, ShardResultWithInvalidZoneListThrows) {
  for (const std::vector<std::uint64_t>& zones :
       {std::vector<std::uint64_t>{3, 1}, std::vector<std::uint64_t>{2, 2},
        std::vector<std::uint64_t>{~std::uint64_t{0}, 0}})
    EXPECT_THROW(decode_shard_result(encode_shard_result(result_for(zones))),
                 SerializationError)
        << "zones {" << zones[0] << ", " << zones[1] << "}";
}

TEST(CommWire, ShardResultLengthDifferingFromItsZoneListThrows) {
  ShardResult longer = result_for({0, 1});
  longer.energies.push_back(1.0);
  EXPECT_THROW(decode_shard_result(encode_shard_result(longer)),
               SerializationError);
  ShardResult shorter = result_for({0, 1});
  shorter.energies.pop_back();
  EXPECT_THROW(decode_shard_result(encode_shard_result(shorter)),
               SerializationError);
}

TEST(CommWire, EmptyShardResultRejected) {
  // An empty zone and energy list (the encoder would happily write it).
  EXPECT_THROW(decode_shard_result(encode_shard_result(result_for({}))),
               SerializationError);
}

TEST(CommWire, WrongPayloadKindRejectedAcrossCodecs) {
  EXPECT_THROW(
      decode_shard_result(encode_shard_request(request_for({0, 1, 2, 3}))),
      SerializationError);
  EXPECT_THROW(decode_shard_request(encode_shard_result(result_for({0, 1}))),
               SerializationError);
}

}  // namespace
}  // namespace wlsms::comm
