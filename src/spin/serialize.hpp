#pragma once

/// \file serialize.hpp
/// Binary (de)serialization of moment configurations on the shared serial
/// schema (common/serial.hpp). Used by the comm wire, the serve protocol
/// and the serve daemon's session checkpoints, so a configuration has
/// exactly one byte layout everywhere: u64 site count, then 3 raw
/// IEEE-754 doubles per site.
/// Round trips are bit-exact (decode uses from_raw_directions).

#include "common/serial.hpp"
#include "spin/moments.hpp"

namespace wlsms::spin {

/// Appends `moments` to `encoder` (payload fragment, no header).
void encode_moments(serial::Encoder& encoder,
                    const MomentConfiguration& moments);

/// Reads a configuration previously written by encode_moments; throws
/// serial::SerializationError on truncation, a corrupt site count, or a
/// direction whose squared norm is zero or not finite (a NaN or ±inf
/// component).
MomentConfiguration decode_moments(serial::Decoder& decoder);

/// Framed single-configuration convenience (header + payload), used where
/// a configuration travels alone rather than inside a larger message.
std::vector<std::byte> encode_moments_framed(const MomentConfiguration&);
MomentConfiguration decode_moments_framed(const std::vector<std::byte>&);

}  // namespace wlsms::spin
