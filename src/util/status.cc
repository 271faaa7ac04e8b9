#include "util/status.h"

#include <cstdio>
#include <cstdlib>

#include "util/macros.h"

namespace hail {

namespace {
const std::string kEmptyString;
}  // namespace

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kUnknown:
      return "Unknown";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kOverloaded:
      return "Overloaded";
  }
  return "Unknown";
}

Status::Status(StatusCode code, std::string message)
    : state_(std::make_unique<State>(State{code, std::move(message)})) {}

Status::Status(const Status& other)
    : state_(other.state_ ? std::make_unique<State>(*other.state_) : nullptr) {}

Status& Status::operator=(const Status& other) {
  if (this != &other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
  }
  return *this;
}

const std::string& Status::message() const {
  return state_ ? state_->message : kEmptyString;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string result(StatusCodeToString(state_->code));
  result += ": ";
  result += state_->message;
  return result;
}

Status Status::WithContext(std::string_view context) const {
  if (ok()) return *this;
  std::string msg(context);
  msg += ": ";
  msg += state_->message;
  return Status(state_->code, std::move(msg));
}

namespace internal {

void FatalStatus(const char* file, int line, const Status& st) {
  std::fprintf(stderr, "%s:%d: HAIL_CHECK_OK failed: %s\n", file, line,
               st.ToString().c_str());
  std::abort();
}

}  // namespace internal
}  // namespace hail
