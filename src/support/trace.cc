#include "support/trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
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

std::uint64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

} // namespace detail

namespace
{

using detail::Event;

/** Events the buffer holds; later ones are dropped. */
constexpr std::size_t kMaxEvents = std::size_t(1) << 20;

/** The process's closed spans, and where to write them at exit. */
struct Buffer
{
    std::mutex mutex;
    std::vector<Event> events;
    std::string path;
    bool exitWriterRegistered = false;
};

/** Leaked on purpose: immortal, safe from any static destructor. */
Buffer &
buffer()
{
    static Buffer *b = new Buffer;
    return *b;
}

/** This thread's small id: 1-based, in order of first closed span. */
std::uint32_t
threadId()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t tid =
        next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

void
writeAtExit()
{
    std::string path;
    {
        Buffer &buf = buffer();
        std::lock_guard<std::mutex> lock(buf.mutex);
        path = buf.path;
    }
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

void
TraceSpan::close()
{
    ev_.endNs = detail::nowNs();
    if (ms_)
        *ms_ += toMs(ev_.endNs - ev_.startNs);
    if (!recording_)
        return;
    ev_.tid = threadId();
    Buffer &buf = buffer();
    {
        std::lock_guard<std::mutex> lock(buf.mutex);
        if (buf.events.size() < kMaxEvents) {
            buf.events.push_back(ev_);
            return;
        }
    }
    cv_warn_once("trace: buffer full at ", kMaxEvents,
                 " events; later spans are dropped");
}

void
arm(const std::string &path)
{
    detail::nowNs(); // pin the trace epoch before any event
    Buffer &buf = buffer();
    {
        std::lock_guard<std::mutex> lock(buf.mutex);
        if (!path.empty())
            buf.path = path;
        if (!buf.path.empty() && !buf.exitWriterRegistered) {
            std::atexit(writeAtExit);
            buf.exitWriterRegistered = true;
        }
    }
    detail::armedFlag.store(true, std::memory_order_relaxed);
}

void
disarm()
{
    detail::armedFlag.store(false, std::memory_order_relaxed);
}

void
clear()
{
    Buffer &buf = buffer();
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.clear();
}

std::vector<EventView>
snapshot()
{
    std::vector<Event> events;
    {
        Buffer &buf = buffer();
        std::lock_guard<std::mutex> lock(buf.mutex);
        events = buf.events;
    }
    std::vector<EventView> out;
    out.reserve(events.size());
    for (const Event &ev : events) {
        EventView view;
        view.cat = ev.cat;
        view.name = ev.name;
        view.tid = ev.tid;
        view.startNs = ev.startNs;
        view.endNs = ev.endNs;
        for (int i = 0; i < ev.nargs; ++i) {
            const Event::Arg &a = ev.args[static_cast<std::size_t>(i)];
            view.args.emplace_back(a.key, std::to_string(a.value));
        }
        out.push_back(std::move(view));
    }
    std::sort(out.begin(), out.end(),
              [](const EventView &a, const EventView &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.startNs != b.startNs)
                      return a.startNs < b.startNs;
                  return a.endNs > b.endNs;
              });
    return out;
}

void
writeJson(std::ostream &os)
{
    const std::vector<EventView> events = snapshot();
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
        const double durUs =
            static_cast<double>(ev.endNs - ev.startNs) / 1e3;
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
