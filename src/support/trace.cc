#include "support/trace.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string_view>

#include "support/logging.hh"

namespace cvliw
{
namespace trace
{

namespace detail
{
std::atomic<bool> armedFlag{false};
} // namespace detail

namespace
{

/**
 * Per-thread event cap: past this, events are dropped and counted.
 * Bounds armed-mode memory (~100 MB/thread worst case) without ever
 * blocking the traced thread.
 */
constexpr std::size_t kMaxEventsPerThread = std::size_t(1) << 19;

/** Nanoseconds since the process trace epoch (first use pins it). */
std::uint64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

} // namespace

namespace detail
{

struct Event
{
    const char *cat = nullptr;
    const char *name = nullptr;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    bool open = false;

    struct Arg
    {
        const char *key = nullptr;
        long long vi = 0;
    };
    std::array<Arg, 3> args;
    int nargs = 0;
};

} // namespace detail

namespace
{

using detail::Event;

/**
 * One thread's append-only event buffer. std::deque keeps element
 * addresses stable across push_back, so open spans hold raw Event
 * pointers. The mutex serializes the owning thread's appends against
 * snapshot/export readers; traced threads never contend with each
 * other.
 */
struct ThreadLog
{
    std::mutex mutex;
    std::uint32_t tid = 0;
    std::deque<Event> events;
    std::uint64_t dropped = 0;
};

struct Registry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadLog>> logs;
    std::string path;
    std::uint32_t nextTid = 1;
    bool exitWriterRegistered = false;
};

/** Leaked on purpose: immortal, safe from any static destructor. */
Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

thread_local std::shared_ptr<ThreadLog> tlsHolder;
thread_local ThreadLog *tlsLog = nullptr;

ThreadLog *
threadLog()
{
    if (!tlsLog) {
        auto log = std::make_shared<ThreadLog>();
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        log->tid = reg.nextTid++;
        reg.logs.push_back(log);
        tlsHolder = log;
        tlsLog = log.get();
    }
    return tlsLog;
}

void
writeAtExit()
{
    std::string path;
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        path = reg.path;
    }
    if (!path.empty())
        writeJson(path);
}

/** Append a JSON string literal with the minimal required escapes. */
void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Arm from CVLIW_TRACE during static initialization. */
const bool envArmed = [] {
    const char *env = std::getenv("CVLIW_TRACE");
    if (env == nullptr || *env == '\0')
        return false;
    arm(env);
    return true;
}();

} // namespace

namespace detail
{

Event *
beginSpan(const char *cat, const char *name)
{
    ThreadLog *log = threadLog();
    std::lock_guard<std::mutex> lock(log->mutex);
    if (log->events.size() >= kMaxEventsPerThread) {
        ++log->dropped;
        return nullptr;
    }
    log->events.emplace_back();
    Event &ev = log->events.back();
    ev.cat = cat;
    ev.name = name;
    ev.t0 = nowNs();
    ev.open = true;
    return &ev;
}

void
endSpan(Event *ev)
{
    if (!ev)
        return;
    // Spans are stack-scoped: destruction runs on the thread that
    // created the event, so tlsLog is this event's owning log.
    std::lock_guard<std::mutex> lock(tlsLog->mutex);
    ev->t1 = nowNs();
    ev->open = false;
}

void
spanArg(Event *ev, const char *key, long long value)
{
    std::lock_guard<std::mutex> lock(tlsLog->mutex);
    if (ev->nargs >= static_cast<int>(ev->args.size()))
        return;
    Event::Arg &a = ev->args[static_cast<std::size_t>(ev->nargs++)];
    a.key = key;
    a.vi = value;
}

} // namespace detail

void
arm(const std::string &path)
{
    nowNs(); // pin the trace epoch before any event
    Registry &reg = registry();
    {
        std::lock_guard<std::mutex> lock(reg.mutex);
        if (!path.empty())
            reg.path = path;
        if (!reg.path.empty() && !reg.exitWriterRegistered) {
            std::atexit(writeAtExit);
            reg.exitWriterRegistered = true;
        }
    }
    detail::armedFlag.store(true, std::memory_order_relaxed);
}

void
disarm()
{
    detail::armedFlag.store(false, std::memory_order_relaxed);
}

std::string
armedPath()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.path;
}

void
clear()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto &log : reg.logs) {
        std::lock_guard<std::mutex> logLock(log->mutex);
        // Defensive: clearing under an open span would dangle its
        // Event pointer, so a log that still has one is left intact
        // (the documented contract requires quiescence anyway).
        const bool anyOpen =
            std::any_of(log->events.begin(), log->events.end(),
                        [](const Event &ev) { return ev.open; });
        if (!anyOpen) {
            log->events.clear();
            log->dropped = 0;
        }
    }
}

std::uint64_t
droppedEvents()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::uint64_t total = 0;
    for (const auto &log : reg.logs) {
        std::lock_guard<std::mutex> logLock(log->mutex);
        total += log->dropped;
    }
    return total;
}

std::uint64_t
bufferedEvents()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::uint64_t total = 0;
    for (const auto &log : reg.logs) {
        std::lock_guard<std::mutex> logLock(log->mutex);
        total += log->events.size();
    }
    return total;
}

std::vector<EventView>
snapshot()
{
    std::vector<EventView> out;
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto &log : reg.logs) {
        std::lock_guard<std::mutex> logLock(log->mutex);
        for (const Event &ev : log->events) {
            EventView view;
            view.cat = ev.cat;
            view.name = ev.name;
            view.tid = log->tid;
            view.startNs = ev.t0;
            view.endNs = ev.open ? 0 : ev.t1;
            view.open = ev.open;
            for (int i = 0; i < ev.nargs; ++i) {
                const Event::Arg &a =
                    ev.args[static_cast<std::size_t>(i)];
                view.args.emplace_back(a.key, std::to_string(a.vi));
            }
            out.push_back(std::move(view));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const EventView &a, const EventView &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.startNs < b.startNs;
              });
    return out;
}

void
writeJson(std::ostream &os)
{
    const std::vector<EventView> events = snapshot();
    const std::uint64_t now = nowNs();
    std::string out;
    out.reserve(events.size() * 120 + 64);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char buf[64];
    for (const EventView &ev : events) {
        if (!first)
            out += ",";
        first = false;
        out += "\n{\"name\":";
        appendJsonString(out, ev.name);
        out += ",\"cat\":";
        appendJsonString(out, ev.cat);
        const double tsUs = static_cast<double>(ev.startNs) / 1e3;
        const std::uint64_t end = ev.open ? now : ev.endNs;
        const double durUs = static_cast<double>(end - ev.startNs) / 1e3;
        std::snprintf(buf, sizeof(buf),
                      ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f", tsUs,
                      durUs);
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%u",
                      ev.tid);
        out += buf;
        if (!ev.args.empty()) {
            out += ",\"args\":{";
            bool firstArg = true;
            for (const auto &kv : ev.args) {
                if (!firstArg)
                    out += ",";
                firstArg = false;
                appendJsonString(out, kv.first);
                out += ":";
                appendJsonString(out, kv.second);
            }
            out += "}";
        }
        out += "}";
    }
    out += "\n]}\n";
    os << out;
}

bool
writeJson(const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        cv_warn("trace: cannot write '", path, "'");
        return false;
    }
    writeJson(os);
    return os.good();
}

} // namespace trace
} // namespace cvliw
