// Recoverable-error vocabulary for BitFlow's serving boundary.
//
// The library distinguishes three failure classes (see DESIGN.md §"Error
// handling policy"):
//
//   * programmer errors  — violated invariants; BF_CHECK aborts (check.hpp);
//   * internal failures  — exceptions thrown deep inside the engine
//     (malformed model bytes, bad_alloc, worker exceptions).  These may
//     cross *internal* layers as exceptions but must never escape the
//     serving API;
//   * recoverable conditions — what a caller of serve::Engine sees: a
//     Status with a machine-readable code plus a human-readable message, or
//     a Result<T> carrying either a value or such a Status.
//
// Status is cheap to pass by value (code + message string) and never
// throws; Result<T> is a thin value-or-status sum type.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "core/check.hpp"

namespace bitflow::core {

/// Machine-readable failure classification of the serving boundary.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kInvalidModel,        ///< malformed/truncated/corrupt model file or graph
  kBadInput,            ///< request input does not match the loaded network
  kResourceExhausted,   ///< allocation failure or a load exceeding its byte budget
  kWorkerFailure,       ///< exception(s) escaped thread-pool workers
  kDeadlineExceeded,    ///< inference did not finish within the configured deadline
  kUnsupportedIsa,      ///< requested ISA level is not executable on this CPU
  kInternal,            ///< any other exception caught at the boundary
  kCancelled,           ///< work abandoned at a cooperative cancellation checkpoint
  kUnavailable,         ///< engine is draining/drained and not accepting work
};

[[nodiscard]] constexpr const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kOk: return "kOk";
    case ErrorCode::kInvalidModel: return "kInvalidModel";
    case ErrorCode::kBadInput: return "kBadInput";
    case ErrorCode::kResourceExhausted: return "kResourceExhausted";
    case ErrorCode::kWorkerFailure: return "kWorkerFailure";
    case ErrorCode::kDeadlineExceeded: return "kDeadlineExceeded";
    case ErrorCode::kUnsupportedIsa: return "kUnsupportedIsa";
    case ErrorCode::kInternal: return "kInternal";
    case ErrorCode::kCancelled: return "kCancelled";
    case ErrorCode::kUnavailable: return "kUnavailable";
  }
  return "?";
}

/// Success-or-error outcome.  Default-constructed Status is OK; non-OK
/// statuses carry a code and a message describing what failed.
class Status {
 public:
  Status() = default;

  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    BF_CHECK(code != ErrorCode::kOk, "non-default Status must carry an error code");
  }

  [[nodiscard]] bool is_ok() const noexcept { return code_ == ErrorCode::kOk; }
  explicit operator bool() const noexcept { return is_ok(); }

  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  /// "kInvalidModel: model load: bad magic ..." (or "kOk").
  [[nodiscard]] std::string to_string() const {
    std::string s = error_code_name(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// Value-or-Status sum type returned by fallible constructors of the
/// serving boundary (e.g. Engine::open).  Accessing value() on an
/// error Result is a contract violation (BF_CHECK).
template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): by-design implicit, mirrors absl::StatusOr
  Result(T value) : v_(std::in_place_index<0>, std::move(value)) {}

  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : v_(std::in_place_index<1>, std::move(status)) {
    BF_CHECK(std::get<1>(v_).code() != ErrorCode::kOk,
             "Result constructed from an OK Status carries no value");
  }

  [[nodiscard]] bool is_ok() const noexcept { return v_.index() == 0; }
  explicit operator bool() const noexcept { return is_ok(); }

  /// OK status when holding a value, the error otherwise.
  [[nodiscard]] Status status() const {
    return is_ok() ? Status{} : std::get<1>(v_);
  }

  [[nodiscard]] T& value() & {
    BF_CHECK(is_ok(), "Result::value() on error: ", std::get<1>(v_).to_string());
    return std::get<0>(v_);
  }
  [[nodiscard]] const T& value() const& {
    BF_CHECK(is_ok(), "Result::value() on error: ", std::get<1>(v_).to_string());
    return std::get<0>(v_);
  }
  [[nodiscard]] T&& value() && {
    BF_CHECK(is_ok(), "Result::value() on error: ", std::get<1>(v_).to_string());
    return std::get<0>(std::move(v_));
  }

  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> v_;
};

}  // namespace bitflow::core
