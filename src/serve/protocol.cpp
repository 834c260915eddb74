#include "serve/protocol.hpp"

#include "spin/serialize.hpp"

namespace wlsms::serve {

using serial::Decoder;
using serial::Encoder;
using serial::PayloadKind;
using serial::SerializationError;

namespace {

void put_tenant(Encoder& e, const std::string& tenant) {
  e.put_u64(tenant.size());
  e.put_bytes(tenant.data(), tenant.size());
}

/// Tenant names feed per-tenant metric series, so hostile bytes are
/// rejected at the decode boundary: bounded length, printable ASCII, no
/// spaces.
std::string get_tenant(Decoder& d) {
  const std::uint64_t size = d.get_u64();
  if (size == 0 || size > kMaxTenantBytes)
    throw SerializationError("serve tenant name empty or oversized");
  std::string tenant(static_cast<std::size_t>(size), '\0');
  d.get_bytes(tenant.data(), tenant.size());
  for (char c : tenant)
    if (c < '!' || c > '~')
      throw SerializationError("serve tenant name has non-printable bytes");
  return tenant;
}

}  // namespace

std::vector<std::byte> encode_serve_hello(const ServeHello& hello) {
  Encoder e;
  serial::write_header(e, PayloadKind::kServeHello);
  put_tenant(e, hello.tenant);
  e.put_u64(hello.trace_node);
  e.put_u64(hello.t0_us);
  return e.take();
}

ServeHello decode_serve_hello(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kServeHello);
  ServeHello hello;
  hello.tenant = get_tenant(d);
  hello.trace_node = d.get_u64();
  hello.t0_us = d.get_u64();
  d.expect_end();
  return hello;
}

std::vector<std::byte> encode_serve_welcome(const ServeWelcome& welcome) {
  Encoder e;
  serial::write_header(e, PayloadKind::kServeWelcome);
  e.put_u64(welcome.session);
  e.put_u64(welcome.n_atoms);
  e.put_u64(welcome.trace_node);
  e.put_u64(welcome.t1_us);
  e.put_u64(welcome.t2_us);
  return e.take();
}

ServeWelcome decode_serve_welcome(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kServeWelcome);
  ServeWelcome welcome;
  welcome.session = d.get_u64();
  welcome.n_atoms = d.get_u64();
  welcome.trace_node = d.get_u64();
  welcome.t1_us = d.get_u64();
  welcome.t2_us = d.get_u64();
  if (welcome.session == 0)
    throw SerializationError("serve-welcome with null session id");
  d.expect_end();
  return welcome;
}

std::vector<std::byte> encode_serve_submit(const wl::EnergyRequest& request) {
  Encoder e;
  serial::write_header(e, PayloadKind::kServeSubmit);
  e.put_u64(request.walker);
  e.put_u64(request.ticket);
  e.put_u64(request.trace.trace_id);
  e.put_u64(request.trace.span_id);
  spin::encode_moments(e, request.config);
  return e.take();
}

wl::EnergyRequest decode_serve_submit(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kServeSubmit);
  wl::EnergyRequest request;
  request.walker = static_cast<std::size_t>(d.get_u64());
  request.ticket = d.get_u64();
  request.trace.trace_id = d.get_u64();
  request.trace.span_id = d.get_u64();
  request.config = spin::decode_moments(d);
  if (request.config.size() == 0)
    throw SerializationError("serve-submit with empty configuration");
  d.expect_end();
  return request;
}

std::vector<std::byte> encode_serve_result(const wl::EnergyResult& result,
                                           const StageBreakdown& stages) {
  Encoder e;
  serial::write_header(e, PayloadKind::kServeResult);
  e.put_u64(result.walker);
  e.put_u64(result.ticket);
  e.put_double(result.energy);
  e.put_u8(result.failed ? 1 : 0);
  e.put_u64(stages.queue_us);
  e.put_u64(stages.solve_us);
  e.put_u64(stages.serialize_us);
  return e.take();
}

ServeResultFrame decode_serve_result_frame(
    const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kServeResult);
  ServeResultFrame frame;
  frame.result.walker = static_cast<std::size_t>(d.get_u64());
  frame.result.ticket = d.get_u64();
  frame.result.energy = d.get_double();
  const std::uint8_t failed = d.get_u8();
  if (failed > 1) throw SerializationError("corrupt serve-result flag");
  frame.result.failed = failed != 0;
  frame.stages.queue_us = d.get_u64();
  frame.stages.solve_us = d.get_u64();
  frame.stages.serialize_us = d.get_u64();
  d.expect_end();
  return frame;
}

wl::EnergyResult decode_serve_result(const std::vector<std::byte>& buffer) {
  return decode_serve_result_frame(buffer).result;
}

std::vector<std::byte> encode_status_request() {
  Encoder e;
  serial::write_header(e, PayloadKind::kServeStatus);
  return e.take();
}

void decode_status_request(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kServeStatus);
  d.expect_end();
}

std::vector<std::byte> encode_status_text(const std::string& text) {
  Encoder e;
  serial::write_header(e, PayloadKind::kServeStatusText);
  e.put_u64(text.size());
  e.put_bytes(text.data(), text.size());
  return e.take();
}

std::string decode_status_text(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kServeStatusText);
  const std::uint64_t size = d.get_u64();
  d.expect_sequence(size, 1);
  std::string text(static_cast<std::size_t>(size), '\0');
  d.get_bytes(text.data(), text.size());
  d.expect_end();
  return text;
}

std::vector<std::byte> encode_serve_reject(const ServeReject& reject) {
  Encoder e;
  serial::write_header(e, PayloadKind::kServeReject);
  e.put_u64(reject.ticket);
  e.put_u8(static_cast<std::uint8_t>(reject.reason));
  return e.take();
}

ServeReject decode_serve_reject(const std::vector<std::byte>& buffer) {
  Decoder d(buffer);
  serial::read_header(d, PayloadKind::kServeReject);
  ServeReject reject;
  reject.ticket = d.get_u64();
  const std::uint8_t reason = d.get_u8();
  if (reason > static_cast<std::uint8_t>(ServeReject::Reason::kBadRequest))
    throw SerializationError("corrupt serve-reject reason");
  reject.reason = static_cast<ServeReject::Reason>(reason);
  d.expect_end();
  return reject;
}

}  // namespace wlsms::serve
