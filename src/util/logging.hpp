/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (bugs in this library), fatal() is for unrecoverable user
 * errors (bad configuration, invalid arguments), warn() and inform()
 * are advisory and never stop execution.
 *
 * Advisory output goes through a pluggable, mutex-serialized sink:
 * each message is formatted into a single string and handed to the
 * sink in one call, so warnings emitted from inside parallel regions
 * never interleave. The verbosity gate is a lock-free atomic level
 * check, making warn()/inform() safe and cheap to call from any
 * thread. panic() and fatal() write directly to stderr (in addition
 * to the sink) because they terminate the process.
 */
#ifndef CHAOS_UTIL_LOGGING_HPP
#define CHAOS_UTIL_LOGGING_HPP

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace chaos {

/** Verbosity levels, most to least chatty. */
enum class LogLevel {
    Debug = 0, ///< Reserved for ad-hoc debugging output.
    Info,      ///< inform() messages and up (the default).
    Warn,      ///< warn() messages and up.
    Error,     ///< Only fatal()/panic() reporting.
    Silent,    ///< Nothing, not even error reporting through the sink.
};

/**
 * Destination for formatted log lines. Receives the severity and the
 * complete, newline-terminated message (e.g. "warn: short read\n").
 * Called with an internal mutex held: keep sinks fast and never log
 * from inside one.
 */
using LogSink = std::function<void(LogLevel, const std::string &line)>;

/**
 * Abort with a message; something happened that should never happen
 * regardless of what the user does (an internal bug). Calls
 * std::abort(), which may dump core.
 *
 * @param msg Description of the violated invariant.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Exit with an error code; the run cannot continue due to a condition
 * that is the caller's fault (bad configuration, invalid arguments).
 * Calls std::exit(1). Only for use at the CLI boundary — library code
 * reachable with user data raises RecoverableError instead (see
 * util/result.hpp).
 *
 * @param msg Description of the user-facing error.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Print a warning about suspicious but non-fatal behaviour.
 * Execution continues. Thread-safe; the message is delivered to the
 * sink as one atomic write.
 */
void warn(const std::string &msg);

/** Print an informative status message. Thread-safe. */
void inform(const std::string &msg);

/**
 * Enable or disable inform()/warn() output (useful to silence tests).
 * Equivalent to setLogLevel(LogLevel::Error) / setLogLevel(LogLevel::Info).
 *
 * @param quiet True suppresses advisory output; errors always print.
 */
void setQuiet(bool quiet);

/** Set the minimum severity that reaches the sink. */
void setLogLevel(LogLevel level);

/** @return The current minimum severity. */
LogLevel logLevel();

/**
 * Parse a level name ("debug", "info", "warn", "error", "silent",
 * case-insensitive).
 *
 * @param name Level name to parse.
 * @param out  Receives the parsed level on success.
 * @return True when @p name named a level.
 */
bool logLevelFromName(const std::string &name, LogLevel &out);

/**
 * Replace the log sink. Passing nullptr restores the default sink
 * (a single unbuffered write to stderr per message). The previous
 * sink is returned so callers can scope a capture and restore it.
 */
LogSink setLogSink(LogSink sink);

/**
 * Check an internal invariant; calls panic() with @p msg on failure.
 *
 * Unlike assert(), this is active in all build types: the modeling
 * pipeline relies on these checks to catch dimension mismatches. The
 * message is a view, so a passing check with a literal builds no
 * std::string.
 */
inline void
panicIf(bool condition, std::string_view msg)
{
    if (condition)
        panic(std::string(msg));
}

/** Check a user-facing precondition; calls fatal() on failure. */
inline void
fatalIf(bool condition, const std::string &msg)
{
    if (condition)
        fatal(msg);
}

} // namespace chaos

#endif // CHAOS_UTIL_LOGGING_HPP
