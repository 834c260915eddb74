#include "spin/serialize.hpp"

namespace wlsms::spin {

void encode_moments(serial::Encoder& encoder,
                    const MomentConfiguration& moments) {
  encoder.put_u64(moments.size());
  for (const Vec3& d : moments.directions()) {
    encoder.put_double(d.x);
    encoder.put_double(d.y);
    encoder.put_double(d.z);
  }
}

MomentConfiguration decode_moments(serial::Decoder& decoder) {
  const std::uint64_t n = decoder.get_u64();
  if (n == 0)
    throw serial::SerializationError("moment configuration with 0 sites");
  decoder.expect_sequence(n, 3 * sizeof(double));
  std::vector<Vec3> dirs(static_cast<std::size_t>(n));
  for (Vec3& d : dirs) {
    d.x = decoder.get_double();
    d.y = decoder.get_double();
    d.z = decoder.get_double();
    if (!is_valid_direction(d))
      throw serial::SerializationError(
          "corrupt moment direction (zero or non-finite)");
  }
  return MomentConfiguration::from_raw_directions(std::move(dirs));
}

std::vector<std::byte> encode_moments_framed(
    const MomentConfiguration& moments) {
  serial::Encoder encoder;
  serial::write_header(encoder, serial::PayloadKind::kMomentConfiguration);
  encode_moments(encoder, moments);
  return encoder.take();
}

MomentConfiguration decode_moments_framed(
    const std::vector<std::byte>& buffer) {
  serial::Decoder decoder(buffer);
  serial::read_header(decoder, serial::PayloadKind::kMomentConfiguration);
  MomentConfiguration moments = decode_moments(decoder);
  decoder.expect_end();
  return moments;
}

}  // namespace wlsms::spin
