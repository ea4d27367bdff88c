// BitFlow wire framing: the length-prefixed binary protocol the serving
// front-end speaks (net::Server) and the fuzz surface the codec tests
// attack.
//
// Every frame is a fixed 24-byte header followed by `length` payload bytes,
// all little-endian:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic "BF01" (0x31304642 LE)
//        4     1  type      (1=InferRequest, 2=InferResponse, 3=Error)
//        5     1  priority  (0=normal, 1=high; requests only, else 0)
//        6     1  flags     (bit 0 = trace-id extension; requests only,
//                            unknown bits rejected — was reserved, so
//                            pre-extension frames decode unchanged)
//        7     1  reserved  (must be 0)
//        8     8  request id (u64, chosen by the client, echoed back)
//       16     4  deadline_ms (u32; 0 = no deadline; requests only, else 0)
//       20     4  length    (u32 payload byte count; <= kMaxPayload)
//       24   ...  payload
//
// Payloads:
//   InferRequest : u32 h, u32 w, u32 c, then h*w*c float32 (HWC logical
//                  order, i.e. Tensor::hwc index order by (c,h,w) planes is
//                  the TENSOR's concern — the wire carries the tensor's
//                  linear buffer verbatim, so client and server agree by
//                  construction).  With the trace-id flag set, a trailing
//                  u64 client trace id follows the floats (length covers
//                  it) — the flight recorder joins it to the server-side
//                  request spans.
//   InferResponse: n float32 scores (n = length / 4).
//   Error        : u32 code (core::ErrorCode), then a UTF-8 message.
//
// Fail-closed contract: decode_frame() accepts a byte range claiming to be
// ONE complete frame and returns kBadInput for ANY violation — bad magic,
// unknown type, nonzero reserved bits, oversized or self-inconsistent
// length, truncated input.  FrameReader applies the same checks
// incrementally: header-level violations are detected as soon as the header
// is buffered (before waiting for a possibly-bogus `length` worth of
// bytes), and a reader that has returned an error stays failed — the
// connection must close after sending one Error frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/status.hpp"

namespace bitflow::net {

inline constexpr std::uint32_t kMagic = 0x31304642u;  // "BF01" in LE byte order
inline constexpr std::size_t kHeaderSize = 24;
/// Hard payload bound: a 256x256x256 float tensor is ~64 MiB; anything
/// larger is a protocol violation, not a big request.
inline constexpr std::uint32_t kMaxPayload = 64u << 20;

enum class FrameType : std::uint8_t {
  kInferRequest = 1,
  kInferResponse = 2,
  kError = 3,
};

/// Header flag bit 0: the request payload carries a trailing u64 client
/// trace id (backward-compatible extension of the old reserved byte).
inline constexpr std::uint8_t kFlagTraceId = 0x01;

/// Decoded InferRequest frame.
struct RequestFrame {
  std::uint64_t id = 0;
  std::uint8_t priority = 0;  ///< 0=normal, 1=high
  std::uint32_t deadline_ms = 0;
  std::uint32_t h = 0, w = 0, c = 0;
  std::vector<float> data;  ///< h*w*c values, tensor linear-buffer order
  /// Optional client trace id (0 = absent).  Encoded via kFlagTraceId.
  std::uint64_t trace_id = 0;
};

/// Decoded InferResponse frame.
struct ResponseFrame {
  std::uint64_t id = 0;
  std::vector<float> scores;
};

/// Decoded Error frame (machine-readable: code is a core::ErrorCode).
struct ErrorFrame {
  std::uint64_t id = 0;
  core::ErrorCode code = core::ErrorCode::kInternal;
  std::string message;
};

using DecodedFrame = std::variant<RequestFrame, ResponseFrame, ErrorFrame>;

// --- encoding (append to a byte buffer; never fails) -------------------------

void append_request(std::vector<std::uint8_t>& out, const RequestFrame& req);
void append_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                     const float* scores, std::size_t n);
void append_error(std::vector<std::uint8_t>& out, std::uint64_t id,
                  core::ErrorCode code, std::string_view message);

// --- decoding ---------------------------------------------------------------

/// Decodes exactly one complete frame from [data, data+size).  Any
/// violation — including size != header+payload exactly — is kBadInput
/// with a reason; this is the pure function the fuzz tests hammer.
[[nodiscard]] core::Result<DecodedFrame> decode_frame(const std::uint8_t* data,
                                                      std::size_t size);

/// Incremental frame parser for one connection's byte stream.
///
/// feed() buffers bytes and decodes every complete frame into the ready
/// queue; next() pops them in arrival order.  The first protocol violation
/// fails the reader permanently (feed() keeps returning the same error and
/// consumes nothing further) — the fail-closed contract above.
class FrameReader {
 public:
  /// Appends bytes and decodes as far as possible.  Returns the sticky
  /// protocol error, or OK (which only means "no violation YET" — frames
  /// may still be incomplete).
  [[nodiscard]] core::Status feed(const std::uint8_t* data, std::size_t n);

  /// Pops the next fully-decoded frame, if any.
  [[nodiscard]] std::optional<DecodedFrame> next();

  /// Bytes buffered but not yet decoded (diagnostics/tests).
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - consumed_; }
  [[nodiscard]] bool failed() const noexcept { return !error_.is_ok(); }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  ///< decoded prefix of buf_ (compacted lazily)
  std::deque<DecodedFrame> ready_;
  core::Status error_;
};

}  // namespace bitflow::net
