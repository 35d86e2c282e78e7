#ifndef RSTORE_COMMON_RESULT_H_
#define RSTORE_COMMON_RESULT_H_

#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/status.h"

namespace rstore {

/// A value-or-Status union, analogous to absl::StatusOr / arrow::Result.
///
/// A Result is either OK and holds a T, or holds a non-OK Status. Callers
/// must check ok() (or status()) before dereferencing. Typical use:
///
///   Result<Chunk> r = store.FetchChunk(id);
///   if (!r.ok()) return r.status();
///   Use(r.value());
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a failed Result. `status` must not be OK: an OK status with
  /// no value is a contract violation.
  Result(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    RSTORE_DCHECK(!status_.ok());
  }

  /// Constructs a successful Result holding `value`.
  Result(T value)  // NOLINT(runtime/explicit)
      : status_(Status::OK()), value_(std::move(value)) {}

  [[nodiscard]] bool ok() const { return status_.ok(); }
  [[nodiscard]] const Status& status() const { return status_; }

  /// Pre-condition: ok().
  [[nodiscard]] const T& value() const& {
    RSTORE_DCHECK(ok());
    return *value_;
  }
  T& value() & {
    RSTORE_DCHECK(ok());
    return *value_;
  }
  T&& value() && {
    RSTORE_DCHECK(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// `*std::move(r)` moves the value out rather than copying it.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the held value, or `fallback` if this Result failed.
  [[nodiscard]] T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Evaluates `expr` (a Result<T>); on failure returns its Status from the
/// enclosing function, otherwise assigns the value to `lhs`.
#define RSTORE_ASSIGN_OR_RETURN(lhs, expr)       \
  auto _rstore_result_##__LINE__ = (expr);       \
  if (!_rstore_result_##__LINE__.ok())           \
    return _rstore_result_##__LINE__.status();   \
  lhs = std::move(_rstore_result_##__LINE__).value();

}  // namespace rstore

#endif  // RSTORE_COMMON_RESULT_H_
