// Tests for the shared binary serialization schema (common/serial): the
// primitive codecs, the magic/version/kind header, and the bounds-checked
// decoder that must throw (never crash) on truncated or hostile input.
#include "common/serial.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

namespace wlsms::serial {
namespace {

TEST(Serial, PrimitiveRoundTrip) {
  Encoder e;
  e.put_u8(0xab);
  e.put_u32(0xdeadbeefu);
  e.put_u64(0x0123456789abcdefULL);
  e.put_double(-1.5);
  const std::vector<std::byte> bytes = e.take();
  ASSERT_EQ(bytes.size(), 1u + 4u + 8u + 8u);

  Decoder d(bytes);
  EXPECT_EQ(d.get_u8(), 0xab);
  EXPECT_EQ(d.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(d.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(d.get_double(), -1.5);
  EXPECT_EQ(d.remaining(), 0u);
  EXPECT_NO_THROW(d.expect_end());
}

TEST(Serial, IntegersAreLittleEndian) {
  Encoder e;
  e.put_u32(0x04030201u);
  const std::vector<std::byte> bytes = e.take();
  EXPECT_EQ(std::to_integer<int>(bytes[0]), 1);
  EXPECT_EQ(std::to_integer<int>(bytes[1]), 2);
  EXPECT_EQ(std::to_integer<int>(bytes[2]), 3);
  EXPECT_EQ(std::to_integer<int>(bytes[3]), 4);
}

TEST(Serial, DoublesSurviveBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::infinity(),
                           std::nextafter(1.0, 2.0)};
  Encoder e;
  for (double v : values) e.put_double(v);
  Decoder d(e.bytes());
  for (double v : values) {
    const double back = d.get_double();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0);
  }
  // NaN keeps its payload bits too.
  Encoder en;
  en.put_double(std::numeric_limits<double>::quiet_NaN());
  Decoder dn(en.bytes());
  const double nan_back = dn.get_double();
  EXPECT_TRUE(std::isnan(nan_back));
}

TEST(Serial, TruncatedReadsThrow) {
  Encoder e;
  e.put_u64(7);
  const std::vector<std::byte> bytes = e.take();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Decoder d(bytes.data(), cut);
    EXPECT_THROW(d.get_u64(), SerializationError) << "cut at " << cut;
  }
}

TEST(Serial, TrailingGarbageThrows) {
  Encoder e;
  e.put_u32(1);
  e.put_u8(0);  // one byte the reader will not consume
  Decoder d(e.bytes());
  (void)d.get_u32();
  EXPECT_THROW(d.expect_end(), SerializationError);
}

TEST(Serial, HostileSequenceCountRejectedBeforeAllocation) {
  Decoder d(nullptr, 0);
  // A count advertising ~2^61 doubles must be rejected up front.
  EXPECT_THROW(d.expect_sequence(~std::uint64_t{0} / 8, sizeof(double)),
               SerializationError);
}

TEST(Serial, HeaderRoundTrip) {
  Encoder e;
  write_header(e, PayloadKind::kMomentConfiguration);
  Decoder d(e.bytes());
  EXPECT_NO_THROW(read_header(d, PayloadKind::kMomentConfiguration));
  EXPECT_EQ(d.remaining(), 0u);
}

TEST(Serial, HeaderBadMagicThrows) {
  Encoder e;
  e.put_u32(kMagic ^ 1);
  e.put_u32(kSchemaVersion);
  e.put_u32(static_cast<std::uint32_t>(PayloadKind::kMomentConfiguration));
  Decoder d(e.bytes());
  EXPECT_THROW(read_header(d, PayloadKind::kMomentConfiguration),
               SerializationError);
}

TEST(Serial, HeaderVersionMismatchThrows) {
  // Both the previous version (a peer from the last release) and a newer
  // one are refused at the header.
  for (const std::uint32_t version : {kSchemaVersion - 1, kSchemaVersion + 1}) {
    Encoder e;
    e.put_u32(kMagic);
    e.put_u32(version);
    e.put_u32(static_cast<std::uint32_t>(PayloadKind::kMomentConfiguration));
    Decoder d(e.bytes());
    EXPECT_THROW(read_header(d, PayloadKind::kMomentConfiguration),
                 SerializationError)
        << "version " << version;
  }
}

TEST(Serial, HeaderKindMismatchThrows) {
  Encoder e;
  write_header(e, PayloadKind::kShardRequest);
  Decoder d(e.bytes());
  EXPECT_THROW(read_header(d, PayloadKind::kShardResult), SerializationError);
}

TEST(Serial, SerializationErrorIsWlsmsError) {
  // Satellite contract: everything thrown by the schema is a wlsms::Error,
  // so callers can catch the library root.
  try {
    Decoder d(nullptr, 0);
    (void)d.get_u8();
    FAIL() << "expected a throw";
  } catch (const Error&) {
    SUCCEED();
  }
}

}  // namespace
}  // namespace wlsms::serial
