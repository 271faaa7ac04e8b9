/// \file status.h
/// \brief Error handling primitives for HAIL (Arrow/RocksDB idiom).
///
/// All fallible operations in the library return `Status` or `Result<T>`
/// (see result.h) instead of throwing exceptions. Hot paths stay
/// exception-free; `HAIL_RETURN_NOT_OK` / `HAIL_ASSIGN_OR_RETURN`
/// (macros.h) propagate errors with no overhead on the OK path.

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace hail {

/// \brief Machine-readable error category carried by a non-OK Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kIOError = 4,
  kCorruption = 5,
  kOutOfRange = 7,
  kFailedPrecondition = 8,
  kUnknown = 9,
  kUnavailable = 10,
  kOverloaded = 11,
};

/// \brief Returns a human-readable name for a status code (e.g. "IOError").
std::string_view StatusCodeToString(StatusCode code);

/// \brief Result of a fallible operation: either OK or a code plus message.
///
/// The OK state is represented by a null internal pointer, so returning
/// `Status::OK()` is free of allocation and branch-predictable.
class Status {
 public:
  /// Creates an OK status.
  Status() noexcept = default;

  /// Creates a status with the given \p code and \p message.
  Status(StatusCode code, std::string message);

  Status(const Status& other);
  Status& operator=(const Status& other);
  Status(Status&& other) noexcept = default;
  Status& operator=(Status&& other) noexcept = default;

  /// Returns an OK status.
  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unknown(std::string msg) {
    return Status(StatusCode::kUnknown, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }

  /// True iff this status represents success.
  bool ok() const { return state_ == nullptr; }

  /// Status code; kOk when ok().
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }

  /// Error message; empty when ok().
  const std::string& message() const;

  bool IsInvalidArgument() const { return code() == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsOverloaded() const { return code() == StatusCode::kOverloaded; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  /// Prefixes the error message with \p context (no-op for OK statuses).
  Status WithContext(std::string_view context) const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  // nullptr means OK.
  std::unique_ptr<State> state_;
};

}  // namespace hail
