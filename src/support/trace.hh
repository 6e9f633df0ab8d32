/**
 * @file
 * Always-compiled, off-by-default tracing for the compile pipeline:
 * RAII spans that each append one complete event to a process-wide
 * buffer when they close, exported as Chrome trace-event JSON (load
 * the file at https://ui.perfetto.dev or chrome://tracing).
 *
 * ## Discipline
 *
 * Disarmed (the default), a span without a telemetry field costs one
 * relaxed atomic load and a never-taken branch - no allocation, no
 * lock, no clock read - so tracing can be compiled into the hottest
 * pipeline loops without perturbing them (the digest harness pins
 * full-suite bit-identity armed *and* disarmed, and BM_TraceOverhead
 * pins the disarmed delta).
 *
 * Armed, a span reads the steady clock when it opens and when it
 * closes, keeps its category, name, start time and args in itself,
 * and on closing appends the complete event to the one buffer under
 * one mutex (a compile closes ~9 spans, so the lock is cheap to
 * share). Nothing points into an open span, so clear() is safe at any
 * time: a span open across it appends afterwards.
 *
 * A span given a `double *ms` adds its duration there when it closes,
 * armed or not. compile() times `CompileTelemetry`'s phases this way,
 * so an armed phase field equals its spans' summed durations
 * (`toMs(endNs - startNs)`) exactly.
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
 *    replicate.round / schedule / spill_retry (one spill and the
 *    schedule after it; the last may find no value to spill)
 *  - service: job (one per pool job, with batch + job args)
 *
 * ## Memory
 *
 * The buffer holds at most 2^20 events (~90 MiB); past that, events
 * are dropped with one warning per process.
 */

#ifndef CVLIW_SUPPORT_TRACE_HH
#define CVLIW_SUPPORT_TRACE_HH

#include <array>
#include <atomic>
#include <cstddef>
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

/** Nanoseconds since the process trace epoch (steady clock). */
std::uint64_t nowNs();

/** One span's event; a buffered one is complete. */
struct Event
{
    struct Arg
    {
        const char *key = nullptr;
        long long value = 0;
    };

    const char *cat = nullptr;
    const char *name = nullptr;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint32_t tid = 0;
    int nargs = 0;
    std::array<Arg, 3> args{};
};

} // namespace detail

/** Is tracing currently armed? */
inline bool
armed()
{
    return detail::armedFlag.load(std::memory_order_relaxed);
}

/** A span duration in milliseconds, as spans charge their fields. */
inline double
toMs(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/**
 * RAII trace span: covers the scope from construction to destruction.
 * Whether it records is decided when it opens. @p cat and @p name
 * must be string literals (the buffer stores the pointers, not
 * copies). A non-null @p ms receives the span's duration in ms
 * (added, armed or not) when it closes.
 */
class TraceSpan
{
  public:
    TraceSpan(const char *cat, const char *name, double *ms = nullptr)
        : ms_(ms), recording_(armed())
    {
        ev_.cat = cat;
        ev_.name = name;
        if (recording_ || ms_)
            ev_.startNs = detail::nowNs();
    }

    ~TraceSpan()
    {
        if (recording_ || ms_)
            close();
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /**
     * Attach a key/value argument (shows under "args" in Perfetto);
     * past three, or when not recording, a no-op.
     */
    void
    arg(const char *key, long long value)
    {
        if (recording_ && ev_.nargs < static_cast<int>(ev_.args.size()))
            ev_.args[static_cast<std::size_t>(ev_.nargs++)] = {key, value};
    }

    /** True iff this span is recording (tracing was armed at entry). */
    bool active() const { return recording_; }

  private:
    /** Charge @p ms_ and, when recording, append the event. */
    void close();

    detail::Event ev_;
    double *ms_;
    bool recording_;
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

/** Drop all buffered events. Safe while spans are open. */
void clear();

/** A buffered event, for tests and tooling. */
struct EventView
{
    std::string cat;
    std::string name;
    std::uint32_t tid = 0;       ///< small per-thread id (1-based)
    std::uint64_t startNs = 0;   ///< since the process trace epoch
    std::uint64_t endNs = 0;
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Snapshot every buffered event, ordered by (tid, startNs); of spans
 * that start together, the longer comes first.
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
