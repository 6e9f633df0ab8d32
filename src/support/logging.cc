#include "support/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cvliw
{
namespace
{

std::atomic<int> logLevel{static_cast<int>(logging::Level::Warn)};
std::atomic<std::uint64_t> warnCalls{0};
std::atomic<std::uint64_t> informCalls{0};

/** Apply CVLIW_LOG during static initialization of any binary. */
const bool envLevelApplied = [] {
    const char *env = std::getenv("CVLIW_LOG");
    if (env == nullptr || *env == '\0')
        return false;
    if (std::strcmp(env, "silent") == 0 ||
        std::strcmp(env, "error") == 0) {
        logging::setLevel(logging::Level::Silent);
    } else if (std::strcmp(env, "warn") == 0) {
        logging::setLevel(logging::Level::Warn);
    } else if (std::strcmp(env, "info") == 0 ||
               std::strcmp(env, "debug") == 0) {
        logging::setLevel(logging::Level::Info);
    } else {
        cv_warn("CVLIW_LOG='", env,
                "' not recognized (want silent|error|warn|info); "
                "keeping level 'warn'");
    }
    return true;
}();

} // namespace

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::fflush(stderr);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    warnCalls.fetch_add(1, std::memory_order_relaxed);
    if (logLevel.load(std::memory_order_relaxed) >=
        static_cast<int>(logging::Level::Warn))
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    informCalls.fetch_add(1, std::memory_order_relaxed);
    if (logLevel.load(std::memory_order_relaxed) >=
        static_cast<int>(logging::Level::Info))
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
countSuppressedWarn()
{
    warnCalls.fetch_add(1, std::memory_order_relaxed);
}

} // namespace detail

namespace logging
{

void
setLevel(Level level)
{
    logLevel.store(static_cast<int>(level), std::memory_order_relaxed);
}

Level
level()
{
    return static_cast<Level>(logLevel.load(std::memory_order_relaxed));
}

std::uint64_t
warnCount()
{
    return warnCalls.load(std::memory_order_relaxed);
}

std::uint64_t
informCount()
{
    return informCalls.load(std::memory_order_relaxed);
}

} // namespace logging

} // namespace cvliw
