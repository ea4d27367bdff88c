#include "net/frame.hpp"

#include <cstring>

namespace bitflow::net {

using core::ErrorCode;
using core::Status;

namespace {

// Serialization is explicit byte shuffling, not struct casts: the wire is
// little-endian by definition, the host may not be, and memcpy through
// uint8_t stays strict-aliasing clean.  Encoders size the whole frame once
// (grow_frame) and store through a cursor; each put_* returns the cursor
// advanced past what it wrote.

std::uint8_t* put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return p + 4;
}

std::uint8_t* put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return p + 8;
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return p[0] | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return get_u32(p) | (std::uint64_t{get_u32(p + 4)} << 32);
}

std::uint8_t* put_f32(std::uint8_t* p, float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, 4);
  return put_u32(p, bits);
}

float get_f32(const std::uint8_t* p) {
  const std::uint32_t bits = get_u32(p);
  float f;
  std::memcpy(&f, &bits, 4);
  return f;
}

/// Appends room for a whole frame (header + `length` payload bytes) to
/// `out` in one resize, writes the header, and returns the cursor at the
/// start of the payload.
std::uint8_t* grow_frame(std::vector<std::uint8_t>& out, FrameType type, std::uint8_t priority,
                         std::uint64_t id, std::uint32_t deadline_ms, std::uint32_t length,
                         std::uint8_t flags = 0) {
  const std::size_t at = out.size();
  out.resize(at + kHeaderSize + length);
  std::uint8_t* p = put_u32(out.data() + at, kMagic);
  *p++ = static_cast<std::uint8_t>(type);
  *p++ = priority;
  *p++ = flags;
  *p++ = 0;  // reserved
  p = put_u64(p, id);
  p = put_u32(p, deadline_ms);
  return put_u32(p, length);
}

/// Header-only validation: everything checkable from the first 24 bytes.
/// Split out so FrameReader can fail closed BEFORE trusting `length` and
/// waiting for up to 4 GiB of payload that will never legitimately arrive.
Status validate_header(const std::uint8_t* h) {
  if (get_u32(h) != kMagic) {
    return Status{ErrorCode::kBadInput, "frame: bad magic (expected \"BF01\")"};
  }
  const std::uint8_t type = h[4];
  if (type < static_cast<std::uint8_t>(FrameType::kInferRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kError)) {
    return Status{ErrorCode::kBadInput,
                  "frame: unknown type " + std::to_string(type)};
  }
  if (h[5] > 1) {
    return Status{ErrorCode::kBadInput,
                  "frame: invalid priority " + std::to_string(h[5])};
  }
  // Byte 6 was reserved-must-be-0 before the flags extension, so rejecting
  // unknown bits (and flags on non-request frames) keeps old decoders and
  // new encoders mutually safe.
  const std::uint8_t flags = h[6];
  if ((flags & static_cast<std::uint8_t>(~kFlagTraceId)) != 0) {
    return Status{ErrorCode::kBadInput,
                  "frame: unknown flag bits " + std::to_string(flags)};
  }
  if (flags != 0 && type != static_cast<std::uint8_t>(FrameType::kInferRequest)) {
    return Status{ErrorCode::kBadInput, "frame: flags on a non-request frame"};
  }
  if (h[7] != 0) {
    return Status{ErrorCode::kBadInput, "frame: reserved bits set"};
  }
  const std::uint32_t length = get_u32(h + 20);
  if (length > kMaxPayload) {
    return Status{ErrorCode::kBadInput,
                  "frame: payload length " + std::to_string(length) +
                      " exceeds the " + std::to_string(kMaxPayload) + "-byte bound"};
  }
  return {};
}

/// Payload decode for a header-validated frame; `p` has exactly `length`
/// bytes.
core::Result<DecodedFrame> decode_payload(const std::uint8_t* h, const std::uint8_t* p,
                                          std::uint32_t length) {
  const auto type = static_cast<FrameType>(h[4]);
  const std::uint64_t id = get_u64(h + 8);
  switch (type) {
    case FrameType::kInferRequest: {
      if (length < 12) {
        return Status{ErrorCode::kBadInput, "frame: request payload shorter than dims"};
      }
      RequestFrame req;
      req.id = id;
      req.priority = h[5];
      req.deadline_ms = get_u32(h + 16);
      req.h = get_u32(p);
      req.w = get_u32(p + 4);
      req.c = get_u32(p + 8);
      const std::uint32_t trailer = (h[6] & kFlagTraceId) != 0 ? 8 : 0;
      // Element count re-derives the length: the two must agree exactly, and
      // the product is bounded by kMaxPayload (checked via the length), so
      // the multiplication cannot overflow past the u64 intermediate.
      const std::uint64_t elems =
          std::uint64_t{req.h} * std::uint64_t{req.w} * std::uint64_t{req.c};
      if (req.h == 0 || req.w == 0 || req.c == 0 ||
          elems > (kMaxPayload - 12 - trailer) / 4 ||
          12 + elems * 4 + trailer != length) {
        return Status{ErrorCode::kBadInput,
                      "frame: request dims " + std::to_string(req.h) + "x" +
                          std::to_string(req.w) + "x" + std::to_string(req.c) +
                          " disagree with payload length " + std::to_string(length)};
      }
      req.data.resize(static_cast<std::size_t>(elems));
      for (std::uint64_t i = 0; i < elems; ++i) {
        req.data[static_cast<std::size_t>(i)] = get_f32(p + 12 + i * 4);
      }
      if (trailer != 0) req.trace_id = get_u64(p + 12 + elems * 4);
      return DecodedFrame{std::move(req)};
    }
    case FrameType::kInferResponse: {
      if (length % 4 != 0) {
        return Status{ErrorCode::kBadInput,
                      "frame: response payload is not a whole number of floats"};
      }
      ResponseFrame resp;
      resp.id = id;
      resp.scores.resize(length / 4);
      for (std::uint32_t i = 0; i < length / 4; ++i) {
        resp.scores[i] = get_f32(p + std::size_t{i} * 4);
      }
      return DecodedFrame{std::move(resp)};
    }
    case FrameType::kError: {
      if (length < 4) {
        return Status{ErrorCode::kBadInput, "frame: error payload shorter than its code"};
      }
      ErrorFrame err;
      err.id = id;
      const std::uint32_t code = get_u32(p);
      if (code > static_cast<std::uint32_t>(ErrorCode::kUnavailable)) {
        return Status{ErrorCode::kBadInput,
                      "frame: unknown error code " + std::to_string(code)};
      }
      err.code = static_cast<ErrorCode>(code);
      err.message.assign(reinterpret_cast<const char*>(p) + 4, length - 4);
      return DecodedFrame{std::move(err)};
    }
  }
  return Status{ErrorCode::kBadInput, "frame: unknown type"};  // unreachable
}

}  // namespace

void append_request(std::vector<std::uint8_t>& out, const RequestFrame& req) {
  const std::uint8_t flags = req.trace_id != 0 ? kFlagTraceId : 0;
  const std::uint32_t length = 12 +
                               4 * static_cast<std::uint32_t>(req.data.size()) +
                               (flags != 0 ? 8 : 0);
  std::uint8_t* p = grow_frame(out, FrameType::kInferRequest, req.priority, req.id,
                               req.deadline_ms, length, flags);
  p = put_u32(p, req.h);
  p = put_u32(p, req.w);
  p = put_u32(p, req.c);
  for (float f : req.data) p = put_f32(p, f);
  if (flags != 0) put_u64(p, req.trace_id);
}

void append_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                     const float* scores, std::size_t n) {
  std::uint8_t* p = grow_frame(out, FrameType::kInferResponse, 0, id, 0,
                               static_cast<std::uint32_t>(n * 4));
  for (std::size_t i = 0; i < n; ++i) p = put_f32(p, scores[i]);
}

void append_error(std::vector<std::uint8_t>& out, std::uint64_t id,
                  core::ErrorCode code, std::string_view message) {
  std::uint8_t* p = grow_frame(out, FrameType::kError, 0, id, 0,
                               static_cast<std::uint32_t>(4 + message.size()));
  p = put_u32(p, static_cast<std::uint32_t>(code));
  if (!message.empty()) std::memcpy(p, message.data(), message.size());
}

core::Result<DecodedFrame> decode_frame(const std::uint8_t* data, std::size_t size) {
  if (size < kHeaderSize) {
    return Status{ErrorCode::kBadInput,
                  "frame: truncated header (" + std::to_string(size) + " of " +
                      std::to_string(kHeaderSize) + " bytes)"};
  }
  if (Status st = validate_header(data); !st.is_ok()) return st;
  const std::uint32_t length = get_u32(data + 20);
  if (size != kHeaderSize + length) {
    return Status{ErrorCode::kBadInput,
                  "frame: size " + std::to_string(size) + " disagrees with header+" +
                      std::to_string(length)};
  }
  return decode_payload(data, data + kHeaderSize, length);
}

core::Status FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  if (!error_.is_ok()) return error_;  // sticky: a failed stream stays failed
  buf_.insert(buf_.end(), data, data + n);
  for (;;) {
    const std::size_t avail = buf_.size() - consumed_;
    // Reject a bad magic as soon as it CAN be seen: a garbage stream fails
    // within 4 bytes instead of dribbling toward a full header.
    if (avail >= 4 && get_u32(buf_.data() + consumed_) != kMagic) {
      error_ = Status{ErrorCode::kBadInput, "frame: bad magic"};
      return error_;
    }
    if (avail < kHeaderSize) break;
    const std::uint8_t* h = buf_.data() + consumed_;
    // Validate the header BEFORE waiting on its claimed payload: a bogus
    // length must not make the reader buffer the peer's garbage forever.
    if (Status st = validate_header(h); !st.is_ok()) {
      error_ = st;
      return error_;
    }
    const std::uint32_t length = get_u32(h + 20);
    if (avail < kHeaderSize + length) break;  // incomplete: wait for more bytes
    core::Result<DecodedFrame> frame = decode_frame(h, kHeaderSize + length);
    if (!frame.is_ok()) {
      error_ = frame.status();
      return error_;
    }
    ready_.push_back(std::move(frame.value()));
    consumed_ += kHeaderSize + length;
  }
  // Compact once the decoded prefix dominates the buffer, amortizing the
  // move so a fast sender cannot make this quadratic.
  if (consumed_ > 0 && consumed_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return {};
}

std::optional<DecodedFrame> FrameReader::next() {
  if (ready_.empty()) return std::nullopt;
  DecodedFrame f = std::move(ready_.front());
  ready_.pop_front();
  return f;
}

}  // namespace bitflow::net
