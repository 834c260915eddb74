#pragma once

/// \file serial.hpp
/// The one versioned binary serialization schema shared by everything that
/// persists or transmits state: Wang-Landau checkpoints (wl/checkpoint) and
/// the comm wire protocol (comm/wire) both frame their payloads with the
/// same header — magic + schema version + payload kind — and build the
/// payload from the same bounds-checked primitive encoders.
///
/// Layout rules:
///  - all integers little-endian, fixed width (u8/u32/u64);
///  - doubles are the 8 raw IEEE-754 bytes (bit-exact round trips — the
///    distributed energy path depends on configurations surviving the wire
///    unchanged to the last ulp);
///  - sequences are a u64 count followed by the elements;
///  - decoding NEVER reads past the buffer: truncated or corrupted input
///    throws SerializationError, it cannot crash.
///
/// Versioning: one schema version covers every payload kind. A reader
/// rejects mismatched magic ("not wlsms data at all") and mismatched
/// version ("wlsms data from an incompatible build") with distinct,
/// explicit errors.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace wlsms::serial {

/// Thrown on malformed, truncated, or version-mismatched serialized data.
class SerializationError : public Error {
 public:
  explicit SerializationError(const std::string& what) : Error(what) {}
};

/// First four bytes of every wlsms-serialized buffer ("WLSM").
inline constexpr std::uint32_t kMagic = 0x4D534C57u;

/// Schema version shared by all payload kinds. Version 1 was checkpoint's
/// bespoke text layout (retired); version 2 the unified binary schema;
/// version 3 adds the session identity to energy/shard requests, the
/// serving-daemon payload kinds (9-14), and the shard-evict control
/// payload (15); version 4 adds trace-context propagation (trace node +
/// parent span on energy/shard/submit requests), the four-timestamp clock
/// probe fields on the TCP and serve handshakes, the per-request stage
/// breakdown on serve results, and the status introspection payloads
/// (16-17); version 5 replaces the contiguous atom range of shard requests
/// and results with explicit zone lists (move-local scatter).
inline constexpr std::uint32_t kSchemaVersion = 5;

/// What a framed buffer carries. The kind is part of the header so a
/// message routed to the wrong decoder fails loudly instead of
/// misinterpreting bytes.
enum class PayloadKind : std::uint32_t {
  kCheckpoint = 1,
  kEnergyRequest = 2,
  kEnergyResult = 3,
  kMomentConfiguration = 4,
  kShardRequest = 5,
  kShardResult = 6,
  kTcpHello = 7,        ///< TCP worker -> controller handshake
  kTcpWelcome = 8,      ///< TCP controller -> worker rank assignment
  kServeHello = 9,      ///< serve client -> daemon session handshake
  kServeWelcome = 10,   ///< serve daemon -> client session grant
  kServeSubmit = 11,    ///< serve client -> daemon energy request
  kServeResult = 12,    ///< serve daemon -> client energy result
  kServeReject = 13,    ///< serve daemon -> client admission rejection
  kServeSession = 14,   ///< serve daemon session-resume checkpoint
  kShardEvict = 15,     ///< controller -> worker delta-cache eviction
  kServeStatus = 16,    ///< status client -> daemon metrics request
  kServeStatusText = 17,  ///< daemon -> status client Prometheus text
};

/// Appends primitives to a growing byte buffer.
class Encoder {
 public:
  void put_u8(std::uint8_t v) { buffer_.push_back(static_cast<std::byte>(v)); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_double(double v);
  void put_bytes(const void* data, std::size_t n);

  const std::vector<std::byte>& bytes() const { return buffer_; }
  std::vector<std::byte> take() { return std::move(buffer_); }

 private:
  std::vector<std::byte> buffer_;
};

/// Reads primitives from a byte buffer; every read is bounds-checked and
/// throws SerializationError on overrun.
class Decoder {
 public:
  Decoder(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Decoder(const std::vector<std::byte>& buffer)
      : Decoder(buffer.data(), buffer.size()) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  double get_double();
  void get_bytes(void* out, std::size_t n);

  std::size_t remaining() const { return size_ - offset_; }

  /// Throws unless the buffer is fully consumed (trailing garbage is as
  /// suspect as truncation).
  void expect_end() const;

  /// Bounds-checks a forthcoming `count`-element sequence of elements at
  /// least `element_size` bytes each, so hostile counts fail before any
  /// allocation instead of via std::bad_alloc.
  void expect_sequence(std::uint64_t count, std::size_t element_size) const;

 private:
  const std::byte* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

/// Writes the shared header: magic, schema version, payload kind.
void write_header(Encoder& encoder, PayloadKind kind);

/// Validates the shared header, throwing a SerializationError naming the
/// problem (bad magic / unsupported version / wrong payload kind).
void read_header(Decoder& decoder, PayloadKind expected_kind);

}  // namespace wlsms::serial
