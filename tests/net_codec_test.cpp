// net frame codec: the fuzz surface of the wire protocol.
//
// Mirrors fuzz_model_io_test's approach for the serving front-end's codec:
//   * roundtrip: encode -> decode is identity for every frame type;
//   * truncation at EVERY byte offset of a valid frame fails closed with
//     kBadInput (never crashes, never returns a partial frame);
//   * oversized/self-inconsistent length fields are rejected from the
//     header alone (the reader must not wait for phantom payload);
//   * deterministic single-bit flips over the whole frame either decode
//     (flips in float payload bytes are data, not structure) or fail
//     closed — and structural fields always fail or change type safely;
//   * FrameReader: byte-at-a-time incremental feeding, multiple frames per
//     feed, sticky failure after the first violation.
//
// Runs under ASan in CI: "no leaks under fuzz" is part of the contract.
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/status.hpp"
#include "net/frame.hpp"
#include "net/http.hpp"

namespace bitflow::net {
namespace {

using core::ErrorCode;

RequestFrame make_request() {
  RequestFrame req;
  req.id = 0x1122334455667788ull;
  req.priority = 1;
  req.deadline_ms = 250;
  req.h = 2;
  req.w = 3;
  req.c = 4;
  req.data.resize(24);
  for (std::size_t i = 0; i < req.data.size(); ++i) {
    req.data[i] = static_cast<float>(i) * 0.5f - 6.0f;
  }
  return req;
}

std::vector<std::uint8_t> encode(const RequestFrame& req) {
  std::vector<std::uint8_t> out;
  append_request(out, req);
  return out;
}

// --- roundtrip --------------------------------------------------------------

TEST(NetCodec, RequestRoundtrips) {
  const RequestFrame req = make_request();
  const std::vector<std::uint8_t> bytes = encode(req);
  ASSERT_EQ(bytes.size(), kHeaderSize + 12 + req.data.size() * 4);

  auto decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  auto* out = std::get_if<RequestFrame>(&decoded.value());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->id, req.id);
  EXPECT_EQ(out->priority, req.priority);
  EXPECT_EQ(out->deadline_ms, req.deadline_ms);
  EXPECT_EQ(out->h, req.h);
  EXPECT_EQ(out->w, req.w);
  EXPECT_EQ(out->c, req.c);
  EXPECT_EQ(out->data, req.data);  // float bits survive exactly
}

TEST(NetCodec, ResponseRoundtrips) {
  const std::vector<float> scores = {1.5f, -2.25f, 0.0f, 3.0e10f};
  std::vector<std::uint8_t> bytes;
  append_response(bytes, 42, scores.data(), scores.size());

  auto decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  auto* out = std::get_if<ResponseFrame>(&decoded.value());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->id, 42u);
  EXPECT_EQ(out->scores, scores);
}

TEST(NetCodec, EncoderWritesLittleEndianWireBytes) {
  // Pinned bytes, not a round trip: a byte-order slip in the encoder that
  // the decoder mirrored would still round-trip.
  std::vector<std::uint8_t> bytes = {0xAA};  // appends after existing bytes
  const float score = 1.0f;                  // 0x3F800000
  append_response(bytes, 0x0102030405060708ull, &score, 1);
  const std::vector<std::uint8_t> want = {
      0xAA,                                            // pre-existing byte
      0x42, 0x46, 0x30, 0x31,                          // magic "BF01"
      0x02, 0x00, 0x00, 0x00,                          // type, priority, flags, reserved
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id
      0x00, 0x00, 0x00, 0x00,                          // deadline_ms
      0x04, 0x00, 0x00, 0x00,                          // payload length
      0x00, 0x00, 0x80, 0x3F};                         // 1.0f
  EXPECT_EQ(bytes, want);
}

TEST(NetCodec, ErrorRoundtrips) {
  std::vector<std::uint8_t> bytes;
  append_error(bytes, 7, ErrorCode::kResourceExhausted, "queue full");

  auto decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  auto* out = std::get_if<ErrorFrame>(&decoded.value());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->id, 7u);
  EXPECT_EQ(out->code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(out->message, "queue full");
}

TEST(NetCodec, EmptyErrorMessageRoundtrips) {
  std::vector<std::uint8_t> bytes;
  append_error(bytes, 0, ErrorCode::kInternal, "");
  auto decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(std::get<ErrorFrame>(decoded.value()).message, "");
}

// --- trace-id header extension ----------------------------------------------

TEST(NetCodec, TraceIdFlagRoundtrips) {
  RequestFrame req = make_request();
  req.trace_id = 0xCAFEBABE12345678ull;
  const std::vector<std::uint8_t> bytes = encode(req);
  // The trailing u64 is covered by the declared length.
  ASSERT_EQ(bytes.size(), kHeaderSize + 12 + req.data.size() * 4 + 8);
  EXPECT_EQ(bytes[6] & kFlagTraceId, kFlagTraceId);

  auto decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  auto* out = std::get_if<RequestFrame>(&decoded.value());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->trace_id, req.trace_id);
  EXPECT_EQ(out->data, req.data);  // payload floats unaffected by the trailer
}

TEST(NetCodec, ZeroTraceIdEncodesWithoutTheFlag) {
  // trace_id == 0 means "absent": pre-extension consumers must see a frame
  // that is byte-identical to one encoded before the extension existed.
  const RequestFrame req = make_request();
  const std::vector<std::uint8_t> bytes = encode(req);
  EXPECT_EQ(bytes[6], 0);
  auto decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(std::get<RequestFrame>(decoded.value()).trace_id, 0u);
}

TEST(NetCodec, UnknownFlagBitsAreRejected) {
  std::vector<std::uint8_t> bytes = encode(make_request());
  for (int bit = 1; bit < 8; ++bit) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[6] = static_cast<std::uint8_t>(1u << bit);
    auto decoded = decode_frame(mutated.data(), mutated.size());
    ASSERT_FALSE(decoded.is_ok()) << "unknown flag bit " << bit << " accepted";
    EXPECT_EQ(decoded.status().code(), ErrorCode::kBadInput);
  }
}

TEST(NetCodec, TraceIdFlagOnNonRequestFramesIsRejected) {
  std::vector<std::uint8_t> resp;
  const float score = 1.0f;
  append_response(resp, 9, &score, 1);
  resp[6] = kFlagTraceId;
  EXPECT_FALSE(decode_frame(resp.data(), resp.size()).is_ok());

  std::vector<std::uint8_t> err;
  append_error(err, 9, ErrorCode::kInternal, "x");
  err[6] = kFlagTraceId;
  EXPECT_FALSE(decode_frame(err.data(), err.size()).is_ok());
}

TEST(NetCodec, TraceIdFlagWithoutTrailerIsRejected) {
  // Set the flag on a frame whose length does NOT cover the 8-byte trailer:
  // the dims+floats now disagree with the declared length.
  std::vector<std::uint8_t> bytes = encode(make_request());
  bytes[6] = kFlagTraceId;
  auto decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kBadInput);
}

TEST(NetCodec, TraceIdTrailerTruncationFailsClosed) {
  RequestFrame req = make_request();
  req.trace_id = 77;
  const std::vector<std::uint8_t> bytes = encode(req);
  // Cut anywhere inside the trailing u64 (and its length accounting).
  for (std::size_t cut = bytes.size() - 8; cut < bytes.size(); ++cut) {
    auto decoded = decode_frame(bytes.data(), cut);
    ASSERT_FALSE(decoded.is_ok()) << "cut at " << cut << " decoded";
  }
}

TEST(NetCodec, ReaderDecodesTraceIdFrames) {
  RequestFrame req = make_request();
  req.trace_id = 0xDEADBEEFull;
  const std::vector<std::uint8_t> bytes = encode(req);
  FrameReader reader;
  for (std::uint8_t b : bytes) ASSERT_TRUE(reader.feed(&b, 1).is_ok());
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(std::get<RequestFrame>(*frame).trace_id, 0xDEADBEEFull);
  EXPECT_EQ(reader.buffered(), 0u);
}

// --- truncation -------------------------------------------------------------

TEST(NetCodec, TruncationAtEveryOffsetFailsClosed) {
  const std::vector<std::uint8_t> bytes = encode(make_request());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    auto decoded = decode_frame(bytes.data(), cut);
    ASSERT_FALSE(decoded.is_ok()) << "cut at " << cut << " decoded";
    EXPECT_EQ(decoded.status().code(), ErrorCode::kBadInput) << "cut at " << cut;
  }
}

TEST(NetCodec, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> bytes = encode(make_request());
  bytes.push_back(0xAB);  // one byte past the declared frame
  auto decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kBadInput);
}

// --- hostile length/dim fields ----------------------------------------------

TEST(NetCodec, OversizedLengthIsRejectedFromHeaderAlone) {
  std::vector<std::uint8_t> bytes = encode(make_request());
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(bytes.data() + 20, &huge, 4);  // length field (test host is LE)

  auto decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kBadInput);

  // The incremental reader must reject it without waiting for ~64 MiB of
  // payload that will never arrive: feed only the header.
  FrameReader reader;
  const core::Status st = reader.feed(bytes.data(), kHeaderSize);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kBadInput);
  EXPECT_TRUE(reader.failed());
}

TEST(NetCodec, DimsDisagreeingWithLengthAreRejected) {
  std::vector<std::uint8_t> bytes = encode(make_request());
  const std::uint32_t bogus = 1000;  // claims 1000*3*4 floats; payload has 24
  std::memcpy(bytes.data() + kHeaderSize, &bogus, 4);  // h dim
  auto decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kBadInput);
}

TEST(NetCodec, ZeroDimIsRejected) {
  RequestFrame req = make_request();
  std::vector<std::uint8_t> bytes = encode(req);
  const std::uint32_t zero = 0;
  std::memcpy(bytes.data() + kHeaderSize + 8, &zero, 4);  // c dim
  auto decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kBadInput);
}

// --- deterministic bit flips -------------------------------------------------

TEST(NetCodec, SingleBitFlipsNeverCrashAndStructuralOnesFailClosed) {
  const std::vector<std::uint8_t> pristine = encode(make_request());
  // Every bit of the frame, one flip at a time: decode must either fail
  // with kBadInput or produce a frame (flips inside float payload bytes are
  // data corruption the codec cannot and should not detect).
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = pristine;
      mutated[byte] = static_cast<std::uint8_t>(mutated[byte] ^ (1u << bit));
      auto decoded = decode_frame(mutated.data(), mutated.size());
      if (!decoded.is_ok()) {
        EXPECT_EQ(decoded.status().code(), ErrorCode::kBadInput)
            << "byte " << byte << " bit " << bit;
      }
      // Structural prefix (magic/type/reserved/length) must never decode
      // as if untouched: any flip there changes or kills the frame.
      if (byte < 8 || (byte >= 20 && byte < kHeaderSize)) {
        if (decoded.is_ok()) {
          // Type flips may land on another valid type (fail-safe: the
          // server rejects non-request frames) and a priority flip can
          // toggle 1 -> 0; magic, reserved and length flips must all fail.
          EXPECT_TRUE(byte == 4u || byte == 5u)
              << "byte " << byte << " bit " << bit
              << " decoded despite a structural flip";
        }
      }
    }
  }
}

// --- incremental reader ------------------------------------------------------

TEST(NetCodec, ReaderDecodesByteAtATime) {
  const RequestFrame req = make_request();
  std::vector<std::uint8_t> bytes = encode(req);
  std::vector<std::uint8_t> more;
  append_error(more, 9, ErrorCode::kCancelled, "x");
  bytes.insert(bytes.end(), more.begin(), more.end());

  FrameReader reader;
  std::vector<DecodedFrame> got;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_TRUE(reader.feed(&bytes[i], 1).is_ok()) << "at byte " << i;
    while (auto f = reader.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(std::get<RequestFrame>(got[0]).data, req.data);
  EXPECT_EQ(std::get<ErrorFrame>(got[1]).id, 9u);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(NetCodec, ReaderFailureIsSticky) {
  FrameReader reader;
  const std::uint8_t junk[8] = {0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0};
  ASSERT_FALSE(reader.feed(junk, sizeof junk).is_ok());
  EXPECT_TRUE(reader.failed());

  // A valid frame after the violation must NOT resurrect the stream.
  const std::vector<std::uint8_t> good = encode(make_request());
  ASSERT_FALSE(reader.feed(good.data(), good.size()).is_ok());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(NetCodec, ReaderHandlesManyFramesInOneFeed) {
  std::vector<std::uint8_t> bytes;
  constexpr int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    RequestFrame req = make_request();
    req.id = static_cast<std::uint64_t>(i);
    append_request(bytes, req);
  }
  FrameReader reader;
  ASSERT_TRUE(reader.feed(bytes.data(), bytes.size()).is_ok());
  for (int i = 0; i < kFrames; ++i) {
    auto f = reader.next();
    ASSERT_TRUE(f.has_value()) << "frame " << i;
    EXPECT_EQ(std::get<RequestFrame>(*f).id, static_cast<std::uint64_t>(i));
  }
  EXPECT_FALSE(reader.next().has_value());
}

// --- http sniffing and parsing ----------------------------------------------

TEST(NetHttp, SniffSeparatesProtocols) {
  EXPECT_TRUE(looks_like_http("GET /healthz HTTP/1.1"));
  EXPECT_TRUE(looks_like_http("GET "));
  EXPECT_FALSE(looks_like_http("BF01"));     // the binary magic
  EXPECT_FALSE(looks_like_http("GE"));       // undecidable: wait for more
  EXPECT_FALSE(looks_like_http("g et"));     // lower-case: not a method
  EXPECT_FALSE(looks_like_http("\x42\x46\x30\x31rest"));  // magic bytes
}

TEST(NetHttp, ParsesCompleteRequest) {
  auto r = parse_http_request("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE(r.value().has_value());
  EXPECT_EQ(r.value()->method, "GET");
  EXPECT_EQ(r.value()->target, "/metrics");
}

TEST(NetHttp, IncompleteHeadWaits) {
  auto r = parse_http_request("GET /metrics HTTP/1.1\r\nHost:");
  ASSERT_TRUE(r.is_ok());
  EXPECT_FALSE(r.value().has_value());
}

TEST(NetHttp, MalformedRequestLineFailsClosed) {
  for (const char* bad : {"GARBAGE\r\n\r\n", "GET\r\n\r\n", "GET  HTTP/1.1\r\n\r\n",
                          "GET noslash HTTP/1.1\r\n\r\n"}) {
    auto r = parse_http_request(bad);
    ASSERT_FALSE(r.is_ok()) << bad;
    EXPECT_EQ(r.status().code(), ErrorCode::kBadInput) << bad;
  }
}

TEST(NetHttp, OversizedHeadFailsClosed) {
  std::string head = "GET /x HTTP/1.1\r\n";
  head += "X-Pad: " + std::string(10000, 'a') + "\r\n";  // never terminated
  auto r = parse_http_request(head);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kBadInput);
}

}  // namespace
}  // namespace bitflow::net
