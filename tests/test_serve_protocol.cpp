// Fuzz/property tests for the serve wire protocol: every payload round-trips
// bit-exactly, and truncated, byte-flipped, oversize-length, or garbage-
// prefixed streams always fail with the protocol's typed errors — never a
// crash, OOB read (asan), or desynced parse. Mirrors test_comm_wire for the
// session layer.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "comm/framing.hpp"
#include "common/rng.hpp"

namespace wlsms::serve {
namespace {

using serial::SerializationError;

spin::MomentConfiguration random_config(std::size_t n, Rng& rng) {
  return spin::MomentConfiguration::random(n, rng);
}

bool same_config(const spin::MomentConfiguration& a,
                 const spin::MomentConfiguration& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(Vec3)) != 0) return false;
  return true;
}

// ---- round trips ----------------------------------------------------------

TEST(ServeProtocol, HelloRoundTrip) {
  ServeHello hello;
  hello.tenant = "walker-farm_01";
  hello.trace_node = 0x123456789ABCull;
  hello.t0_us = 987654321;
  const std::vector<std::byte> bytes = encode_serve_hello(hello);
  // Header (12 B), tenant length + bytes, trace node, t0: nothing else.
  EXPECT_EQ(bytes.size(), 12u + 8u + hello.tenant.size() + 8u + 8u);
  const ServeHello back = decode_serve_hello(bytes);
  EXPECT_EQ(back.tenant, hello.tenant);
  EXPECT_EQ(back.trace_node, hello.trace_node);
  EXPECT_EQ(back.t0_us, hello.t0_us);
}

TEST(ServeProtocol, WelcomeRoundTrip) {
  ServeWelcome welcome;
  welcome.session = 7;
  welcome.n_atoms = 16;
  welcome.trace_node = 0xA0B0C0D0E0ull;
  welcome.t1_us = 111;
  welcome.t2_us = 222;
  const std::vector<std::byte> bytes = encode_serve_welcome(welcome);
  // Header (12 B) and five u64 fields: session, n_atoms, the clock probe.
  EXPECT_EQ(bytes.size(), 12u + 5u * 8u);
  const ServeWelcome back = decode_serve_welcome(bytes);
  EXPECT_EQ(back.session, welcome.session);
  EXPECT_EQ(back.n_atoms, welcome.n_atoms);
  EXPECT_EQ(back.trace_node, welcome.trace_node);
  EXPECT_EQ(back.t1_us, welcome.t1_us);
  EXPECT_EQ(back.t2_us, welcome.t2_us);
}

TEST(ServeProtocol, SubmitRoundTripIsBitExact) {
  Rng rng(501);
  for (int round = 0; round < 20; ++round) {
    wl::EnergyRequest request;
    request.walker = rng.uniform_index(64);
    request.ticket = rng.next();
    request.trace.trace_id = rng.next();
    request.trace.span_id = rng.next();
    request.config = random_config(1 + rng.uniform_index(32), rng);
    const wl::EnergyRequest back =
        decode_serve_submit(encode_serve_submit(request));
    EXPECT_EQ(back.walker, request.walker);
    EXPECT_EQ(back.ticket, request.ticket);
    EXPECT_EQ(back.trace.trace_id, request.trace.trace_id);
    EXPECT_EQ(back.trace.span_id, request.trace.span_id);
    EXPECT_TRUE(same_config(back.config, request.config));
  }
}

TEST(ServeProtocol, ResultCarriesStageBreakdown) {
  wl::EnergyResult result;
  result.walker = 5;
  result.ticket = 77;
  result.energy = -3.25;
  StageBreakdown stages;
  stages.queue_us = 1200;
  stages.solve_us = 45000;
  stages.serialize_us = 80;
  const ServeResultFrame back =
      decode_serve_result_frame(encode_serve_result(result, stages));
  EXPECT_EQ(back.result.ticket, result.ticket);
  EXPECT_EQ(back.result.energy, result.energy);
  EXPECT_EQ(back.stages.queue_us, stages.queue_us);
  EXPECT_EQ(back.stages.solve_us, stages.solve_us);
  EXPECT_EQ(back.stages.serialize_us, stages.serialize_us);
  // Default breakdown (legacy callers): all-zero stage vector, not garbage.
  const ServeResultFrame bare =
      decode_serve_result_frame(encode_serve_result(result));
  EXPECT_EQ(bare.stages.queue_us, 0u);
  EXPECT_EQ(bare.stages.solve_us, 0u);
  EXPECT_EQ(bare.stages.serialize_us, 0u);
}

TEST(ServeProtocol, StatusConversationRoundTrip) {
  // Request payload is header-only; the reply carries arbitrary text
  // (Prometheus exposition) including newlines and UTF-8.
  decode_status_request(encode_status_request());
  const std::string text =
      "# TYPE serve_stage_ms_solve histogram\n"
      "serve_stage_ms_solve_bucket{le=\"0.01\"} 0\nµs tail";
  EXPECT_EQ(decode_status_text(encode_status_text(text)), text);
  EXPECT_EQ(decode_status_text(encode_status_text("")), "");
  // Kind confusion between the two status payloads throws, like every codec.
  EXPECT_THROW(decode_status_request(encode_status_text("x")),
               SerializationError);
  EXPECT_THROW((void)decode_status_text(encode_status_request()),
               SerializationError);
}

TEST(ServeProtocol, ResultAndRejectRoundTrip) {
  wl::EnergyResult result;
  result.walker = 3;
  result.ticket = 99;
  result.energy = -1.734e2;
  result.failed = true;
  const wl::EnergyResult res_back =
      decode_serve_result(encode_serve_result(result));
  EXPECT_EQ(res_back.walker, result.walker);
  EXPECT_EQ(res_back.ticket, result.ticket);
  EXPECT_EQ(res_back.energy, result.energy);
  EXPECT_EQ(res_back.failed, result.failed);

  for (const auto reason :
       {ServeReject::Reason::kQueueFull, ServeReject::Reason::kQuotaExceeded,
        ServeReject::Reason::kBadRequest}) {
    ServeReject reject;
    reject.ticket = 17;
    reject.reason = reason;
    const ServeReject back = decode_serve_reject(encode_serve_reject(reject));
    EXPECT_EQ(back.ticket, reject.ticket);
    EXPECT_EQ(back.reason, reject.reason);
  }
  // Byte 3 names no reason and is refused.
  std::vector<std::byte> bytes = encode_serve_reject({17, {}});
  bytes.back() = std::byte{3};
  EXPECT_THROW(decode_serve_reject(bytes), SerializationError);
}

// ---- validation -----------------------------------------------------------

TEST(ServeProtocol, HostileTenantNamesRejected) {
  ServeHello hello;
  hello.tenant = "";
  EXPECT_THROW(decode_serve_hello(encode_serve_hello(hello)),
               SerializationError);
  hello.tenant = std::string(kMaxTenantBytes + 1, 'a');
  EXPECT_THROW(decode_serve_hello(encode_serve_hello(hello)),
               SerializationError);
  // Tenant names feed metric series: spaces and control bytes must not
  // survive decoding.
  hello.tenant = "bad tenant";
  EXPECT_THROW(decode_serve_hello(encode_serve_hello(hello)),
               SerializationError);
  hello.tenant = std::string("evil\n") + "x";
  EXPECT_THROW(decode_serve_hello(encode_serve_hello(hello)),
               SerializationError);
  hello.tenant = std::string(1, '\0') + "zero";
  EXPECT_THROW(decode_serve_hello(encode_serve_hello(hello)),
               SerializationError);
}

TEST(ServeProtocol, NullSessionsAndEmptyConfigsRejected) {
  ServeWelcome welcome;  // session == 0
  welcome.n_atoms = 4;
  EXPECT_THROW(decode_serve_welcome(encode_serve_welcome(welcome)),
               SerializationError);

  wl::EnergyRequest request;  // empty config
  request.walker = 0;
  request.ticket = 1;
  EXPECT_THROW(decode_serve_submit(encode_serve_submit(request)),
               SerializationError);
}

TEST(ServeProtocol, WrongPayloadKindRejectedAcrossCodecs) {
  Rng rng(503);
  wl::EnergyRequest request;
  request.walker = 1;
  request.ticket = 2;
  request.config = random_config(4, rng);
  const std::vector<std::byte> submit = encode_serve_submit(request);
  EXPECT_THROW(decode_serve_hello(submit), SerializationError);
  EXPECT_THROW(decode_serve_welcome(submit), SerializationError);
  EXPECT_THROW(decode_serve_result(submit), SerializationError);
  EXPECT_THROW(decode_serve_reject(submit), SerializationError);
  ServeHello hello;
  hello.tenant = "t";
  EXPECT_THROW(decode_serve_welcome(encode_serve_hello(hello)),
               SerializationError);
}

// ---- truncation / corruption / garbage ------------------------------------

TEST(ServeProtocol, EveryTruncationOfEveryPayloadThrows) {
  Rng rng(504);
  wl::EnergyRequest request;
  request.walker = 2;
  request.ticket = 3;
  request.config = random_config(4, rng);
  ServeHello hello;
  hello.tenant = "alice";
  hello.trace_node = 7;
  hello.t0_us = 8;
  ServeWelcome welcome;
  welcome.session = 1;
  welcome.n_atoms = 4;
  welcome.trace_node = 9;
  welcome.t1_us = 10;
  welcome.t2_us = 11;

  const std::vector<std::vector<std::byte>> payloads = {
      encode_serve_hello(hello),
      encode_serve_welcome(welcome),
      encode_serve_submit(request),
      encode_serve_result({1, 2, -3.5, false}, {10, 20, 30}),
      encode_serve_reject({5, ServeReject::Reason::kQuotaExceeded}),
      encode_status_request(),
      encode_status_text("# TYPE x counter\nx 1\n"),
  };
  const auto decoders = {
      +[](const std::vector<std::byte>& b) { (void)decode_serve_hello(b); },
      +[](const std::vector<std::byte>& b) { (void)decode_serve_welcome(b); },
      +[](const std::vector<std::byte>& b) { (void)decode_serve_submit(b); },
      +[](const std::vector<std::byte>& b) { (void)decode_serve_result(b); },
      +[](const std::vector<std::byte>& b) { (void)decode_serve_reject(b); },
      +[](const std::vector<std::byte>& b) { decode_status_request(b); },
      +[](const std::vector<std::byte>& b) { (void)decode_status_text(b); },
  };
  std::size_t which = 0;
  for (const auto& decode : decoders) {
    const std::vector<std::byte>& bytes = payloads[which++];
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<std::byte> truncated(
          bytes.begin(), bytes.begin() + static_cast<long>(cut));
      EXPECT_THROW(decode(truncated), SerializationError)
          << "payload " << which - 1 << " cut at " << cut;
    }
  }
}

TEST(ServeProtocol, RandomByteFlipsNeverCrashAnyDecoder) {
  Rng rng(505);
  wl::EnergyRequest request;
  request.walker = 1;
  request.ticket = 44;
  request.config = random_config(6, rng);
  ServeHello hello;
  hello.tenant = "fuzz";
  hello.trace_node = 3;
  hello.t0_us = 4;
  ServeWelcome welcome;
  welcome.session = 9;
  welcome.n_atoms = 6;
  welcome.trace_node = 10;
  welcome.t1_us = 11;
  welcome.t2_us = 12;

  const std::vector<std::vector<std::byte>> payloads = {
      encode_serve_hello(hello),
      encode_serve_welcome(welcome),
      encode_serve_submit(request),
      encode_serve_result({0, 45, 1.5, false}, {7, 8, 9}),
      encode_status_text("# TYPE serve_results counter\nserve_results 3\n"),
  };
  for (const std::vector<std::byte>& bytes : payloads) {
    for (int round = 0; round < 600; ++round) {
      std::vector<std::byte> corrupt = bytes;
      const std::size_t where = rng.uniform_index(corrupt.size());
      corrupt[where] ^= static_cast<std::byte>(1 + rng.uniform_index(255));
      try {
        (void)decode_serve_hello(corrupt);
      } catch (const SerializationError&) {
      }
      try {
        (void)decode_serve_welcome(corrupt);
      } catch (const SerializationError&) {
      }
      try {
        (void)decode_serve_submit(corrupt);
      } catch (const SerializationError&) {
      }
      try {
        (void)decode_serve_result_frame(corrupt);
      } catch (const SerializationError&) {
      }
      try {
        (void)decode_status_text(corrupt);
      } catch (const SerializationError&) {
      }
    }
  }
}

TEST(ServeProtocol, PureGarbageBuffersNeverCrash) {
  Rng rng(506);
  for (int round = 0; round < 400; ++round) {
    std::vector<std::byte> garbage(rng.uniform_index(200));
    for (std::byte& b : garbage)
      b = static_cast<std::byte>(rng.uniform_index(256));
    try {
      (void)decode_serve_hello(garbage);
    } catch (const SerializationError&) {
    }
    try {
      (void)decode_serve_submit(garbage);
    } catch (const SerializationError&) {
    }
  }
}

TEST(ServeProtocol, GarbagePrefixedStreamFailsAtTheAssemblerNotLater) {
  // A stream that starts with random bytes either yields a frame whose
  // decode throws SerializationError, or trips the assembler's length
  // hardening with CommError. Either way the daemon's per-connection error
  // path fires; nothing crashes or silently "succeeds".
  Rng rng(507);
  for (int round = 0; round < 200; ++round) {
    comm::FrameAssembler assembler;
    std::vector<std::byte> garbage(8 + rng.uniform_index(64));
    for (std::byte& b : garbage)
      b = static_cast<std::byte>(rng.uniform_index(256));
    try {
      assembler.push(garbage.data(), garbage.size());
      comm::Message frame;
      while (assembler.pop(frame)) {
        try {
          (void)decode_serve_hello(frame.payload);
        } catch (const SerializationError&) {
        }
      }
    } catch (const comm::CommError&) {
      // corrupt length field — the expected outcome for most garbage
    }
  }
}

TEST(ServeProtocol, OversizeLengthFieldIsRejected) {
  comm::FrameAssembler assembler;
  const std::uint32_t huge = 0xFFFFFFF0u;  // > kMaxFrameBytes
  std::byte header[8];
  std::memcpy(header, &huge, 4);
  const std::uint32_t tag = kTagServeHello;
  std::memcpy(header + 4, &tag, 4);
  assembler.push(header, sizeof(header));
  comm::Message frame;
  EXPECT_THROW((void)assembler.pop(frame), comm::CommError);
}

}  // namespace
}  // namespace wlsms::serve
