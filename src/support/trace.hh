/**
 * @file
 * Always-compiled, off-by-default tracing for the compile pipeline:
 * RAII spans recorded into per-thread append-only buffers, exported
 * as Chrome trace-event JSON (load the file at https://ui.perfetto.dev
 * or chrome://tracing).
 *
 * ## Discipline
 *
 * Disarmed (the default), a span construction is one relaxed atomic
 * load and a never-taken branch - no allocation, no lock, no clock
 * read - so tracing can be compiled into the hottest pipeline loops
 * without perturbing them (the digest harness pins full-suite
 * bit-identity armed *and* disarmed, and BM_TraceOverhead pins the
 * disarmed delta).
 *
 * Armed, each span appends one event to a per-thread buffer under a
 * per-thread mutex (contended only by snapshot/export readers), with
 * two steady-clock reads per span. Buffers are append-only with
 * stable element addresses, so an open span holds a raw pointer to
 * its event and stamps the end time on destruction.
 *
 * ## Arming
 *
 * - `CVLIW_TRACE=<path>`: armed during static initialization; the
 *   trace is written to <path> at process exit. Every binary linking
 *   this file honours it with no per-binary code.
 * - `trace::arm(path)` / `trace::arm()` from code; an empty path
 *   buffers without scheduling an exit-time write (tests, benches).
 *
 * ## Spans compiled in today (grep `TraceSpan` for ground truth)
 *
 *  - pipeline: compile / partition / ii_attempt / refine / replicate /
 *    replicate.round / schedule / spill_retry
 *  - service: job (one per pool job, with batch + job args)
 *
 * ## Memory safety
 *
 * Each thread buffers at most kMaxEventsPerThread events; past that,
 * events are dropped and counted (droppedEvents()). clear() empties
 * the buffers and requires quiescence: no span may be open in any
 * thread while clear() runs (callers drain their pools first).
 */

#ifndef CVLIW_SUPPORT_TRACE_HH
#define CVLIW_SUPPORT_TRACE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace cvliw
{
namespace trace
{

namespace detail
{

/** True iff tracing is armed (fast-path gate; relaxed load). */
extern std::atomic<bool> armedFlag;

struct Event;

/** Slow path: append an open span event to this thread's buffer. */
Event *beginSpan(const char *cat, const char *name);

/** Stamp the end time of @p ev (nullptr-safe at the call site). */
void endSpan(Event *ev);

/** Attach an integer argument to an open span. */
void spanArg(Event *ev, const char *key, long long value);

} // namespace detail

/** Is tracing currently armed? */
inline bool
armed()
{
    return detail::armedFlag.load(std::memory_order_relaxed);
}

/**
 * RAII trace span: covers the scope from construction to destruction.
 * Disarmed, construction is one relaxed load; every other member is a
 * null-pointer check. @p cat and @p name must be string literals (the
 * buffer stores the pointers, not copies).
 */
class TraceSpan
{
  public:
    TraceSpan(const char *cat, const char *name)
        : ev_(armed() ? detail::beginSpan(cat, name) : nullptr)
    {
    }

    ~TraceSpan() { detail::endSpan(ev_); }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach a key/value argument (shows under "args" in Perfetto). */
    void
    arg(const char *key, long long value)
    {
        if (ev_)
            detail::spanArg(ev_, key, value);
    }

    /** True iff this span is recording (tracing was armed at entry). */
    bool active() const { return ev_ != nullptr; }

  private:
    detail::Event *ev_;
};

/**
 * Arm tracing. @p path, if non-empty, is where the Chrome trace JSON
 * is written at process exit (and what CVLIW_TRACE installs); an
 * empty path buffers events without scheduling a write. Arming is
 * idempotent and keeps already-buffered events.
 */
void arm(const std::string &path = std::string());

/** Stop recording. Buffered events stay readable until clear(). */
void disarm();

/** The exit-time output path ("" if none was configured). */
std::string armedPath();

/**
 * Drop all buffered events and reset the dropped-event counter.
 * Requires quiescence: no span may be open in any thread.
 */
void clear();

/** Events dropped because a thread hit its buffer cap. */
std::uint64_t droppedEvents();

/** Events currently buffered across all threads. */
std::uint64_t bufferedEvents();

/** A completed (or still-open) event, for tests and tooling. */
struct EventView
{
    std::string cat;
    std::string name;
    std::uint32_t tid = 0;       ///< small per-thread id (1-based)
    std::uint64_t startNs = 0;   ///< since the process trace epoch
    std::uint64_t endNs = 0;
    bool open = false;           ///< destructor has not run yet
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Snapshot every buffered event, ordered by (tid, startNs). Open
 * spans appear with open=true and endNs 0.
 */
std::vector<EventView> snapshot();

/** Serialize the buffered events as Chrome trace-event JSON. */
void writeJson(std::ostream &os);

/**
 * Write the buffered events to @p path as Chrome trace-event JSON.
 * @return false (after a warning) if the file cannot be written.
 */
bool writeJson(const std::string &path);

} // namespace trace
} // namespace cvliw

#endif // CVLIW_SUPPORT_TRACE_HH
