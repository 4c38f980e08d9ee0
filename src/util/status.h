// Lightweight Status / Expected error-handling primitives.
//
// The library does not use exceptions (consistent with kernel-adjacent systems
// code); fallible operations return Status or Expected<T>.

#ifndef SRC_UTIL_STATUS_H_
#define SRC_UTIL_STATUS_H_

#include <cassert>
#include <string>
#include <string_view>
#include <utility>

namespace cache_ext {

// Error categories, loosely mirroring absl::StatusCode / kernel errno classes.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kUnavailable,
  kPermissionDenied,
  kIoError,
  kCorruption,
  kInternal,
};

std::string_view ErrorCodeName(ErrorCode code);

// A cheap, copyable status: an error code plus an optional human-readable
// message. The OK status carries no allocation.
class Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  explicit Status(ErrorCode code) : code_(code) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "NOT_FOUND: no such file" style rendering for logs and test failures.
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  ErrorCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }

inline Status InvalidArgument(std::string msg) {
  return Status(ErrorCode::kInvalidArgument, std::move(msg));
}
inline Status NotFound(std::string msg) {
  return Status(ErrorCode::kNotFound, std::move(msg));
}
inline Status AlreadyExists(std::string msg) {
  return Status(ErrorCode::kAlreadyExists, std::move(msg));
}
inline Status OutOfRange(std::string msg) {
  return Status(ErrorCode::kOutOfRange, std::move(msg));
}
inline Status ResourceExhausted(std::string msg) {
  return Status(ErrorCode::kResourceExhausted, std::move(msg));
}
inline Status FailedPrecondition(std::string msg) {
  return Status(ErrorCode::kFailedPrecondition, std::move(msg));
}
inline Status PermissionDenied(std::string msg) {
  return Status(ErrorCode::kPermissionDenied, std::move(msg));
}
inline Status IoError(std::string msg) {
  return Status(ErrorCode::kIoError, std::move(msg));
}
inline Status Corruption(std::string msg) {
  return Status(ErrorCode::kCorruption, std::move(msg));
}
inline Status Internal(std::string msg) {
  return Status(ErrorCode::kInternal, std::move(msg));
}

// Expected<T>: either a value or a non-OK Status (std::expected is C++23, so
// we provide the minimal subset the library needs).
template <typename T>
class Expected {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Expected(T value) : ok_(true) { new (&value_) T(std::move(value)); }
  Expected(Status status) : ok_(false) {
    assert(!status.ok() && "Expected<T> requires a non-OK status");
    new (&status_) Status(std::move(status));
  }

  Expected(const Expected& other) : ok_(other.ok_) {
    if (ok_) {
      new (&value_) T(other.value_);
    } else {
      new (&status_) Status(other.status_);
    }
  }
  Expected(Expected&& other) noexcept : ok_(other.ok_) {
    if (ok_) {
      new (&value_) T(std::move(other.value_));
    } else {
      new (&status_) Status(std::move(other.status_));
    }
  }
  Expected& operator=(const Expected& other) {
    if (this != &other) {
      this->~Expected();
      new (this) Expected(other);
    }
    return *this;
  }
  Expected& operator=(Expected&& other) noexcept {
    if (this != &other) {
      this->~Expected();
      new (this) Expected(std::move(other));
    }
    return *this;
  }
  ~Expected() {
    if (ok_) {
      value_.~T();
    } else {
      status_.~Status();
    }
  }

  bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }

  Status status() const { return ok_ ? Status::Ok() : status_; }

  T& value() & {
    assert(ok_);
    return value_;
  }
  const T& value() const& {
    assert(ok_);
    return value_;
  }
  T&& value() && {
    assert(ok_);
    return std::move(value_);
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  T value_or(T fallback) const {
    return ok_ ? value_ : std::move(fallback);
  }

 private:
  bool ok_;
  union {
    T value_;
    Status status_;
  };
};

// Propagation helpers (statement-expression free; usable in any function that
// returns Status or Expected<T>).
#define CACHE_EXT_RETURN_IF_ERROR(expr)            \
  do {                                             \
    ::cache_ext::Status _st = (expr);              \
    if (!_st.ok()) {                               \
      return _st;                                  \
    }                                              \
  } while (0)

#define CACHE_EXT_ASSIGN_OR_RETURN(lhs, expr)      \
  auto _expected_##__LINE__ = (expr);              \
  if (!_expected_##__LINE__.ok()) {                \
    return _expected_##__LINE__.status();          \
  }                                                \
  lhs = std::move(_expected_##__LINE__).value()

}  // namespace cache_ext

#endif  // SRC_UTIL_STATUS_H_
