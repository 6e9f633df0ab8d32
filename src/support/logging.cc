#include "support/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace cvliw
{
namespace
{

std::atomic<std::uint64_t> warnCalls{0};

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
warnImpl(const std::string &msg)
{
    warnCalls.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail

namespace logging
{

std::uint64_t
warnCount()
{
    return warnCalls.load(std::memory_order_relaxed);
}

} // namespace logging

} // namespace cvliw
