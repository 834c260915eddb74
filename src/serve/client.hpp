#pragma once

/// \file client.hpp
/// Client side of the serve protocol: a wl::EnergyService whose compute
/// backend is a remote `wlsms serve` daemon. submit() ships the walker
/// configuration as one frame; retrieve() blocks for the next ServeResult
/// (or ServeReject, surfaced as failed=true) — exactly the out-of-order
/// contract every other EnergyService honours, so a Wang-Landau driver can
/// run against a shared daemon without knowing it. The session lives as
/// long as the connection: results still owed when it closes are lost.

#include <cstdint>
#include <map>
#include <string>

#include "comm/framing.hpp"
#include "serve/protocol.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::serve {

/// Client connection knobs.
struct ClientOptions {
  /// Tenant name presented in the handshake (printable ASCII, <= 64 B).
  std::string tenant = "default";
};

/// Connects and handshakes in the constructor; throws comm::CommError on
/// connect failure, timeout, or a malformed handshake reply. The deadlines
/// are fixed: 5 s to connect (comm::kConnectTimeout), 5 s for the hello ->
/// welcome round trip and for each submit write, 120 s for one retrieve().
/// Tickets must be unique among in-flight requests: a result or reject for
/// a ticket that is not in flight is a protocol error, so the socket is
/// closed and retrieve() throws CommError. Single-threaded, like every
/// EnergyService.
class ServeClient final : public wl::EnergyService {
 public:
  explicit ServeClient(const std::string& address,
                       const ClientOptions& options = {});
  ~ServeClient() override;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  void submit(wl::EnergyRequest request) override;
  wl::EnergyResult retrieve() override;
  std::size_t outstanding() const override { return in_flight_.size(); }

  std::uint64_t session() const { return session_; }
  std::size_t n_atoms() const { return n_atoms_; }

  /// Chaos hook: hard-kills the socket (both directions) without the
  /// protocol goodbye, so tests can die on the daemon mid-batch. Subsequent
  /// submit/retrieve throw CommError.
  void abort_socket();

 private:
  /// Decodes a ServeResult or ServeReject frame into the result of its
  /// in-flight ticket; throws CommError when the ticket is not in flight.
  wl::EnergyResult pop_completed(const comm::Message& frame);

  int fd_ = -1;
  comm::FrameAssembler rx_;
  std::uint64_t session_ = 0;
  std::size_t n_atoms_ = 0;
  struct InFlight {
    std::size_t walker = 0;
    std::uint64_t submitted_us = 0;  ///< obs::trace_now_us() at submit
  };
  /// ticket -> walker + submit time of every request awaiting its reply, so
  /// a ServeReject (which carries only the ticket) can be surfaced with the
  /// right walker id and a ServeResult can price its wire time (round trip
  /// minus the daemon's stage vector).
  std::map<std::uint64_t, InFlight> in_flight_;
};

}  // namespace wlsms::serve
