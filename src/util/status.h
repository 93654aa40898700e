#ifndef GSLS_UTIL_STATUS_H_
#define GSLS_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace gsls {

/// Error categories used across the library. Modeled on the RocksDB/Abseil
/// convention of returning a `Status` rather than throwing exceptions across
/// public API boundaries.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Malformed input (e.g. parse errors).
  kNotFound,          ///< A requested entity does not exist.
  kFailedPrecondition,///< The operation requires state the caller lacks.
  kResourceExhausted, ///< A budget (nodes, depth, memory) was exceeded.
  kUnimplemented,     ///< The feature is intentionally not supported.
  kInternal,          ///< Invariant violation inside the library.
  kCancelled,         ///< A cancellation token (or injected fault) fired.
  kDeadlineExceeded,  ///< A deadline or step budget ran out.
};

/// Stable human-readable name for `code` ("OK", "InvalidArgument"...).
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error value. All fallible public operations in
/// the library return `Status` or `Result<T>`; exceptions are never thrown
/// across the public API.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value of type `T` or an error `Status`. Minimal analogue of
/// `absl::StatusOr<T>`.
template <typename T>
class Result {
 public:
  /// Implicit from value (success).
  Result(T value) : status_(Status::Ok()), value_(std::move(value)) {}
  /// Implicit from non-OK status (error). Constructing from an OK status is
  /// an internal error.
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Requires `ok()`.
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value, or `fallback` on error.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace gsls

#endif  // GSLS_UTIL_STATUS_H_
