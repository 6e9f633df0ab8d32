/**
 * @file
 * Status and error reporting: cv_panic() and cv_assert() for internal
 * invariant violations (bugs in this library: print and abort),
 * cv_warn() and cv_warn_once() for advisory messages on stderr.
 *
 * Bad caller input is not reported here: the library throws a typed
 * exception for it (`std::invalid_argument` from the machine
 * factories, `DdgBuilder`, `buildBenchmark` and `resourceMii`;
 * `InvalidInput` and `DdgSlotError` for graphs), so no library call
 * ends the process on bad input.
 *
 * Every warning prints, and logging::warnCount() counts them, so a
 * test can pin how many warnings a call emitted.
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

/** Print a warning banner to stderr and count it. */
void warnImpl(const std::string &msg);

} // namespace detail

namespace logging
{

/** Warnings printed since process start. */
std::uint64_t warnCount();

} // namespace logging

} // namespace cvliw

/**
 * Report an internal library bug and abort. Use only for conditions
 * that can never happen unless the library itself is broken.
 */
#define cv_panic(...)                                                   \
    ::cvliw::detail::panicImpl(__FILE__, __LINE__,                      \
                               ::cvliw::detail::concat(__VA_ARGS__))

/** Advisory message about suspicious but tolerated conditions. */
#define cv_warn(...)                                                    \
    ::cvliw::detail::warnImpl(::cvliw::detail::concat(__VA_ARGS__))

/** Advisory message printed at most once per call site per process. */
#define cv_warn_once(...)                                               \
    do {                                                                \
        static ::std::atomic<bool> cv_warned_once_{false};              \
        if (!cv_warned_once_.exchange(true,                             \
                                      ::std::memory_order_relaxed))     \
            cv_warn(__VA_ARGS__);                                       \
    } while (0)

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
