#include "common/serial.hpp"

#include <cstring>

namespace wlsms::serial {

namespace {

const char* kind_name(PayloadKind kind) {
  switch (kind) {
    case PayloadKind::kMomentConfiguration: return "moment-configuration";
    case PayloadKind::kShardRequest: return "shard-request";
    case PayloadKind::kShardResult: return "shard-result";
    case PayloadKind::kTcpHello: return "tcp-hello";
    case PayloadKind::kTcpWelcome: return "tcp-welcome";
    case PayloadKind::kServeHello: return "serve-hello";
    case PayloadKind::kServeWelcome: return "serve-welcome";
    case PayloadKind::kServeSubmit: return "serve-submit";
    case PayloadKind::kServeResult: return "serve-result";
    case PayloadKind::kServeReject: return "serve-reject";
    case PayloadKind::kServeSession: return "serve-session";
    case PayloadKind::kServeStatus: return "serve-status";
    case PayloadKind::kServeStatusText: return "serve-status-text";
  }
  return "unknown";
}

}  // namespace

void Encoder::put_u32(std::uint32_t v) {
  for (int k = 0; k < 4; ++k)
    buffer_.push_back(static_cast<std::byte>((v >> (8 * k)) & 0xFFu));
}

void Encoder::put_u64(std::uint64_t v) {
  for (int k = 0; k < 8; ++k)
    buffer_.push_back(static_cast<std::byte>((v >> (8 * k)) & 0xFFu));
}

void Encoder::put_double(double v) {
  static_assert(sizeof(double) == 8);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  put_u64(bits);
}

void Encoder::put_bytes(const void* data, std::size_t n) {
  const auto* bytes = static_cast<const std::byte*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + n);
}

std::uint8_t Decoder::get_u8() {
  if (remaining() < 1) throw SerializationError("truncated buffer: need 1 byte");
  return static_cast<std::uint8_t>(data_[offset_++]);
}

std::uint32_t Decoder::get_u32() {
  if (remaining() < 4)
    throw SerializationError("truncated buffer: need 4 bytes, have " +
                             std::to_string(remaining()));
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k)
    v |= static_cast<std::uint32_t>(data_[offset_ + k]) << (8 * k);
  offset_ += 4;
  return v;
}

std::uint64_t Decoder::get_u64() {
  if (remaining() < 8)
    throw SerializationError("truncated buffer: need 8 bytes, have " +
                             std::to_string(remaining()));
  std::uint64_t v = 0;
  for (int k = 0; k < 8; ++k)
    v |= static_cast<std::uint64_t>(data_[offset_ + k]) << (8 * k);
  offset_ += 8;
  return v;
}

double Decoder::get_double() {
  const std::uint64_t bits = get_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, 8);
  return v;
}

void Decoder::get_bytes(void* out, std::size_t n) {
  if (remaining() < n)
    throw SerializationError("truncated buffer: need " + std::to_string(n) +
                             " bytes, have " + std::to_string(remaining()));
  std::memcpy(out, data_ + offset_, n);
  offset_ += n;
}

void Decoder::expect_end() const {
  if (remaining() != 0)
    throw SerializationError("trailing garbage: " +
                             std::to_string(remaining()) +
                             " bytes after payload");
}

void Decoder::expect_sequence(std::uint64_t count,
                              std::size_t element_size) const {
  if (count > remaining() / element_size)
    throw SerializationError(
        "corrupt sequence count " + std::to_string(count) + " (only " +
        std::to_string(remaining()) + " bytes remain)");
}

void write_header(Encoder& encoder, PayloadKind kind) {
  encoder.put_u32(kMagic);
  encoder.put_u32(kSchemaVersion);
  encoder.put_u32(static_cast<std::uint32_t>(kind));
}

void read_header(Decoder& decoder, PayloadKind expected_kind) {
  const std::uint32_t magic = decoder.get_u32();
  if (magic != kMagic)
    throw SerializationError("bad magic: not wlsms-serialized data");
  const std::uint32_t version = decoder.get_u32();
  if (version != kSchemaVersion)
    throw SerializationError(
        "schema version mismatch: data is version " + std::to_string(version) +
        ", this build reads version " + std::to_string(kSchemaVersion));
  const std::uint32_t kind = decoder.get_u32();
  if (kind != static_cast<std::uint32_t>(expected_kind))
    throw SerializationError(
        std::string("payload kind mismatch: expected ") +
        kind_name(expected_kind) + ", got " +
        kind_name(static_cast<PayloadKind>(kind)) + " (" +
        std::to_string(kind) + ")");
}

}  // namespace wlsms::serial
