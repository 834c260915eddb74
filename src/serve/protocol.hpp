#pragma once

/// \file protocol.hpp
/// Wire protocol of the multi-tenant energy daemon (`wlsms serve`): the
/// session handshake and the submit/result/reject conversation. A session
/// lives exactly as long as its connection. Every payload rides the shared
/// WLSM serial schema (magic + version + payload kind) inside the same
/// [u32 length][u32 tag][payload] frames as the comm transports, so a serve
/// stream is parsed by the identical hardened machinery: truncated or
/// corrupted payloads throw serial::SerializationError, corrupt frame
/// lengths throw CommError from the assembler, and neither can crash or
/// desync the daemon.
///
/// Conversation:
///   client -> daemon   ServeHello   (tenant name + clock probe)
///   daemon -> client   ServeWelcome (session id + n_atoms + clock probe)
///   client -> daemon   ServeSubmit  (one walker configuration per frame)
///   daemon -> client   ServeResult  (completed energies, any order)
///                  or  ServeReject  (admission control: queue full, quota,
///                                    malformed request)

#include <cstdint>
#include <string>
#include <vector>

#include "common/serial.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::serve {

/// Application frame tags of the serve conversation. Distinct from the
/// comm::Tag shard/energy range (1..4) so a serve frame routed into a group
/// stream — or vice versa — is recognizably foreign, and far below the
/// channel control tags (0xFFFFFFFC..) per the framing.hpp rule.
enum Tag : std::uint32_t {
  kTagServeHello = 10,
  kTagServeWelcome = 11,
  kTagServeSubmit = 12,
  kTagServeResult = 13,
  kTagServeReject = 14,
  kTagServeStatus = 15,       ///< introspection: metrics request
  kTagServeStatusReply = 16,  ///< introspection: Prometheus text reply
};

/// Longest accepted tenant name. Tenant names label per-tenant metric
/// series, so they are bounded and restricted to printable ASCII.
inline constexpr std::size_t kMaxTenantBytes = 64;

/// Client -> daemon session handshake. Carries the client's trace node and
/// a send timestamp so the welcome closes an NTP-style four-timestamp clock
/// probe: offset = ((t1-t0)+(t2-t3))/2 with t3 sampled at welcome receipt.
struct ServeHello {
  std::string tenant;            ///< non-empty printable ASCII, <= 64 B
  std::uint64_t trace_node = 0;  ///< client's obs::local_trace_node()
  std::uint64_t t0_us = 0;       ///< client clock at hello send
};

/// Daemon -> client session grant.
struct ServeWelcome {
  std::uint64_t session = 0;
  std::uint64_t n_atoms = 0;     ///< configuration size the daemon serves
  std::uint64_t trace_node = 0;  ///< daemon's obs::local_trace_node()
  std::uint64_t t1_us = 0;       ///< daemon clock at hello receipt
  std::uint64_t t2_us = 0;       ///< daemon clock at welcome send
};

/// Per-request critical-path attribution, returned on every ServeResult:
/// where the daemon spent this request's wall time. The client adds its own
/// wire time (round trip minus the daemon stages) to complete the picture.
struct StageBreakdown {
  std::uint64_t queue_us = 0;      ///< admitted -> batch formed
  std::uint64_t solve_us = 0;      ///< batch formed -> solved
  std::uint64_t serialize_us = 0;  ///< solved -> result frame encoded
};

/// One decoded ServeResult frame: the energy plus its stage vector.
struct ServeResultFrame {
  wl::EnergyResult result;
  StageBreakdown stages;
};

/// Daemon -> client admission rejection for one submitted ticket.
struct ServeReject {
  enum class Reason : std::uint8_t {
    kQueueFull = 0,      ///< daemon-wide pending queue at capacity
    kQuotaExceeded = 1,  ///< this session's outstanding quota exhausted
    kBadRequest = 2,     ///< malformed or wrong-sized configuration
  };
  std::uint64_t ticket = 0;
  Reason reason = Reason::kBadRequest;
};

std::vector<std::byte> encode_serve_hello(const ServeHello&);
ServeHello decode_serve_hello(const std::vector<std::byte>&);

std::vector<std::byte> encode_serve_welcome(const ServeWelcome&);
ServeWelcome decode_serve_welcome(const std::vector<std::byte>&);

/// Submit carries walker + ticket + trace context + configuration; the
/// session identity is implied by the connection (the daemon stamps it
/// server-side, so a client cannot submit into another tenant's session).
std::vector<std::byte> encode_serve_submit(const wl::EnergyRequest&);
wl::EnergyRequest decode_serve_submit(const std::vector<std::byte>&);

std::vector<std::byte> encode_serve_result(const wl::EnergyResult&,
                                           const StageBreakdown& = {});
ServeResultFrame decode_serve_result_frame(const std::vector<std::byte>&);
/// Convenience: the energy alone, stage vector discarded.
wl::EnergyResult decode_serve_result(const std::vector<std::byte>&);

/// Introspection conversation: an empty Status request answered with the
/// daemon's metrics registry rendered as Prometheus text. Accepted before
/// any handshake (a status probe is not a session), one reply per request.
std::vector<std::byte> encode_status_request();
void decode_status_request(const std::vector<std::byte>&);

std::vector<std::byte> encode_status_text(const std::string& text);
std::string decode_status_text(const std::vector<std::byte>&);

std::vector<std::byte> encode_serve_reject(const ServeReject&);
ServeReject decode_serve_reject(const std::vector<std::byte>&);

}  // namespace wlsms::serve
