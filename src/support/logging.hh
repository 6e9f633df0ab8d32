/**
 * @file
 * Status and error reporting, following the gem5 fatal/panic
 * discipline: panic() for internal invariant violations (bugs in this
 * library), fatal() for unrecoverable user errors (bad configuration,
 * malformed input), warn()/inform() for advisory messages.
 *
 * ## Log levels (CVLIW_LOG)
 *
 * Advisory output is gated by a process-wide level, settable from
 * code (logging::setLevel) or the CVLIW_LOG environment variable at
 * static initialization: `silent` | `error` (alias of silent for
 * advisory purposes) | `warn` (default) | `info` (alias: `debug`).
 * panic/fatal banners always print - a process about to die explains
 * itself regardless of level. An unrecognized CVLIW_LOG value warns
 * once and keeps the default.
 *
 * Every warn()/inform() *call* is counted, even when suppressed by
 * the level (logging::warnCount / informCount), so a quiet log does
 * not mean nothing happened.
 */

#ifndef CVLIW_SUPPORT_LOGGING_HH
#define CVLIW_SUPPORT_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

namespace cvliw
{

namespace detail
{

/** Concatenate a parameter pack into a single string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/** Terminate via std::abort after printing a panic banner. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminate via std::exit(1) after printing a fatal banner. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning banner to stderr (if the level allows). */
void warnImpl(const std::string &msg);

/** Print an informational message to stderr (if the level allows). */
void informImpl(const std::string &msg);

/** Count a cv_warn_once repeat without formatting or printing. */
void countSuppressedWarn();

} // namespace detail

namespace logging
{

/** Advisory-output verbosity, most to least quiet. */
enum class Level : int
{
    Silent = 0, ///< no advisory output (panic/fatal still print)
    Warn = 1,   ///< warnings only (the default)
    Info = 2,   ///< warnings + informational messages
};

/** Set the advisory log level for the whole process. */
void setLevel(Level level);

/** The current advisory log level. */
Level level();

/**
 * warn() calls since process start. Counts every call, including
 * those suppressed by the level.
 */
std::uint64_t warnCount();

/** inform() calls since process start (suppressed calls included). */
std::uint64_t informCount();

} // namespace logging

/**
 * Enable or disable inform() output (warnings are unaffected).
 * Legacy switch: maps onto setLevel(Info) / setLevel(Warn).
 */
void setVerboseLogging(bool enabled);

} // namespace cvliw

/**
 * Report an internal library bug and abort. Use only for conditions
 * that can never happen unless the library itself is broken.
 */
#define cv_panic(...)                                                   \
    ::cvliw::detail::panicImpl(__FILE__, __LINE__,                      \
                               ::cvliw::detail::concat(__VA_ARGS__))

/**
 * Report an unrecoverable user-level error (bad machine string, invalid
 * DDG, ...) and exit with status 1.
 */
#define cv_fatal(...)                                                   \
    ::cvliw::detail::fatalImpl(__FILE__, __LINE__,                      \
                               ::cvliw::detail::concat(__VA_ARGS__))

/** Advisory message about suspicious but tolerated conditions. */
#define cv_warn(...)                                                    \
    ::cvliw::detail::warnImpl(::cvliw::detail::concat(__VA_ARGS__))

/**
 * Advisory message emitted at most once per call site for the life of
 * the process (repeat triggers still count in logging::warnCount()).
 */
#define cv_warn_once(...)                                               \
    do {                                                                \
        static ::std::atomic<bool> cv_warned_once_{false};              \
        if (!cv_warned_once_.exchange(true,                             \
                                      ::std::memory_order_relaxed))     \
            cv_warn(__VA_ARGS__);                                       \
        else                                                            \
            ::cvliw::detail::countSuppressedWarn();                     \
    } while (0)

/** Progress/status message; silenced unless the level is Info. */
#define cv_inform(...)                                                  \
    ::cvliw::detail::informImpl(::cvliw::detail::concat(__VA_ARGS__))

/** Internal invariant check; panics with the condition text on failure. */
#define cv_assert(cond, ...)                                            \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::cvliw::detail::panicImpl(__FILE__, __LINE__,              \
                ::cvliw::detail::concat("assertion failed: ", #cond,    \
                                        " ", ##__VA_ARGS__));           \
        }                                                               \
    } while (0)

#endif // CVLIW_SUPPORT_LOGGING_HH
