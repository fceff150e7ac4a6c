/**
 * @file
 * Recoverable error handling for library-level user-data failures.
 *
 * The logging conventions (see logging.hpp) reserve panic() for
 * internal bugs and fatal() for unrecoverable configuration errors.
 * Both stop the process, which is acceptable in a CLI tool but not in
 * a library embedded in a long-running service: a corrupt model file
 * or truncated dataset uploaded by one client must not take down the
 * whole estimator fleet.
 *
 * Malformed *user data* (files, counter names, serialized models)
 * therefore raises a RecoverableError instead. Code that wants
 * value-style error handling wraps the throwing entry points with
 * tryInvoke() / the try*() wrappers, which produce a Result<T>. The
 * process-exit behaviour of fatal() is retained only at the CLI
 * boundary (src/cli, tools/main.cpp), which catches RecoverableError
 * and turns it into an error message plus a nonzero exit code.
 */
#ifndef CHAOS_UTIL_RESULT_HPP
#define CHAOS_UTIL_RESULT_HPP

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/logging.hpp"

namespace chaos {

/**
 * Error raised on malformed user data (bad file, unknown name,
 * truncated stream). Catchable; carries a human-readable message that
 * cites the offending input where known (file, line).
 */
class RecoverableError : public std::runtime_error
{
  public:
    /** @param msg Description of what was malformed, and where. */
    explicit RecoverableError(const std::string &msg)
        : std::runtime_error(msg)
    {}

    /** The error message (same as what()). */
    std::string message() const { return what(); }
};

/**
 * Raise a RecoverableError; the library-level counterpart of fatal()
 * for errors the caller can handle (skip the file, reject the
 * request) instead of dying.
 */
[[noreturn]] inline void
raise(const std::string &msg)
{
    throw RecoverableError(msg);
}

/**
 * Raise a RecoverableError if @p condition holds. The message is a
 * view, so a passing check with a literal builds no std::string: hot
 * paths can check per sample without a heap allocation per check.
 */
inline void
raiseIf(bool condition, std::string_view msg)
{
    if (condition)
        raise(std::string(msg));
}

/**
 * Value-or-error carrier for APIs that prefer explicit checking over
 * exceptions. A Result either holds a T or an error message; value()
 * on an error Result is an internal bug (panic).
 */
template <typename T>
class Result
{
  public:
    /** Successful result holding @p value. */
    static Result ok(T value)
    {
        Result r;
        r.stored = std::move(value);
        return r;
    }

    /** Failed result carrying @p message. */
    static Result failure(std::string message)
    {
        Result r;
        r.errorMessage = std::move(message);
        return r;
    }

    /** True when a value is present. */
    bool hasValue() const { return stored.has_value(); }
    /** True when a value is present. */
    explicit operator bool() const { return hasValue(); }

    /** The held value; panic()s if this Result is an error. */
    T &value()
    {
        panicIf(!stored.has_value(),
                "Result::value() on error: " + errorMessage);
        return *stored;
    }

    /** The held value; panic()s if this Result is an error. */
    const T &value() const
    {
        panicIf(!stored.has_value(),
                "Result::value() on error: " + errorMessage);
        return *stored;
    }

    /** The held value, or @p fallback when this Result is an error. */
    T valueOr(T fallback) const
    {
        return stored.has_value() ? *stored : std::move(fallback);
    }

    /** The error message; empty when a value is present. */
    const std::string &error() const { return errorMessage; }

  private:
    Result() = default;

    std::optional<T> stored;
    std::string errorMessage;
};

/** Result<void>: success/failure with no payload. */
template <>
class Result<void>
{
  public:
    /** Successful result. */
    static Result ok()
    {
        return Result();
    }

    /** Failed result carrying @p message. */
    static Result failure(std::string message)
    {
        Result r;
        r.errorMessage = std::move(message);
        r.succeeded = false;
        return r;
    }

    /** True on success. */
    bool hasValue() const { return succeeded; }
    /** True on success. */
    explicit operator bool() const { return succeeded; }

    /** The error message; empty on success. */
    const std::string &error() const { return errorMessage; }

  private:
    Result() = default;

    bool succeeded = true;
    std::string errorMessage;
};

/**
 * Run @p fn, capturing a RecoverableError as a failed Result. Other
 * exception types (and panic/fatal) propagate unchanged: they signal
 * bugs or unrecoverable states, not malformed user data.
 *
 * @code
 *   auto data = tryInvoke([&] { return loadDataset(path); });
 *   if (!data) { log(data.error()); return; }
 *   use(data.value());
 * @endcode
 */
template <typename Fn>
auto
tryInvoke(Fn &&fn) -> Result<decltype(fn())>
{
    using R = Result<decltype(fn())>;
    try {
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            return R::ok();
        } else {
            return R::ok(fn());
        }
    } catch (const RecoverableError &err) {
        return R::failure(err.message());
    }
}

} // namespace chaos

#endif // CHAOS_UTIL_RESULT_HPP
