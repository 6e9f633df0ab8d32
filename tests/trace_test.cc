/**
 * @file
 * Tracing and telemetry tests: span nesting per thread, clear() under
 * an open span, the armed-vs-disarmed determinism contract (tracing
 * must be a pure observer), JSON export shape, phase spans that sum to
 * CompileTelemetry's phase fields exactly, and its deterministic
 * counters across worker counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/digest.hh"
#include "eval/service.hh"
#include "support/trace.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

/** Fresh trace state for each test in this binary. */
void
resetTrace()
{
    trace::disarm();
    trace::clear();
}

TEST(Trace, DisarmedSpansRecordNothing)
{
    resetTrace();
    EXPECT_FALSE(trace::armed());
    {
        trace::TraceSpan span("test", "noop");
        EXPECT_FALSE(span.active());
        span.arg("ignored", 1); // must be a no-op, not a crash
    }
    EXPECT_TRUE(trace::snapshot().empty());
}

TEST(Trace, DisarmedSpanStillChargesItsField)
{
    // A telemetry field is charged whether tracing is armed or not,
    // and charging it records no event.
    resetTrace();
    double ms = 0.0;
    {
        trace::TraceSpan span("test", "timed", &ms);
        EXPECT_FALSE(span.active());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(ms, 1.0);
    const double first = ms;
    {
        trace::TraceSpan span("test", "timed", &ms);
    }
    EXPECT_GE(ms, first); // a second span adds to the field
    EXPECT_TRUE(trace::snapshot().empty());
}

TEST(Trace, ClearUnderAnOpenSpanKeepsThatSpan)
{
    // A span keeps its event in itself until it closes, so clear()
    // while another thread holds a span open is safe, and that span
    // still lands afterwards: it is then the only event buffered.
    resetTrace();
    trace::arm();
    {
        trace::TraceSpan before("test", "before");
    }
    std::promise<void> opened, cleared;
    std::thread holder([&] {
        trace::TraceSpan span("test", "held");
        span.arg("n", 3);
        opened.set_value();
        cleared.get_future().wait();
    });
    opened.get_future().wait();
    trace::clear();
    EXPECT_TRUE(trace::snapshot().empty());
    cleared.set_value();
    holder.join();
    trace::disarm();

    const auto events = trace::snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "held");
    EXPECT_LE(events[0].startNs, events[0].endNs);
    ASSERT_EQ(events[0].args.size(), 1u);
    EXPECT_EQ(events[0].args[0].second, "3");
    resetTrace();
}

TEST(Trace, SpansNestProperlyPerThread)
{
    resetTrace();
    trace::arm(); // buffer only, no exit-time write
    ASSERT_TRUE(trace::armed());

    constexpr int kThreads = 4;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t] {
            for (int rep = 0; rep < 3; ++rep) {
                trace::TraceSpan outer("test", "outer");
                outer.arg("thread", t);
                outer.arg("rep", rep);
                {
                    trace::TraceSpan inner("test", "inner");
                    inner.arg("rep", rep);
                }
            }
        });
    }
    for (auto &t : pool)
        t.join();
    trace::disarm();

    const auto events = trace::snapshot();
    // 4 threads x 3 reps x (outer + inner).
    EXPECT_EQ(events.size(), std::size_t(kThreads * 3 * 2));

    // Per thread, spans must be properly nested: sorted by start
    // time, a stack of open intervals never partially overlaps.
    std::uint32_t tid = 0;
    std::vector<const trace::EventView *> stack;
    for (const auto &ev : events) {
        if (ev.tid != tid) {
            tid = ev.tid;
            stack.clear();
        }
        while (!stack.empty() && stack.back()->endNs <= ev.startNs)
            stack.pop_back();
        if (!stack.empty()) {
            EXPECT_GE(ev.startNs, stack.back()->startNs);
            EXPECT_LE(ev.endNs, stack.back()->endNs)
                << ev.name << " straddles " << stack.back()->name;
        }
        if (ev.name == "inner") {
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(stack.back()->name, "outer");
        }
        stack.push_back(&ev);
    }

    // Span args survive the buffer round-trip.
    bool saw_rep_arg = false;
    for (const auto &ev : events) {
        if (ev.name != "outer")
            continue;
        for (const auto &kv : ev.args)
            if (kv.first == "rep")
                saw_rep_arg = true;
    }
    EXPECT_TRUE(saw_rep_arg);
    resetTrace();
}

TEST(Trace, WriteJsonProducesChromeTraceShape)
{
    resetTrace();
    trace::arm();
    {
        trace::TraceSpan span("test", "json \"quoted\" name\n");
        span.arg("note", -7);
    }
    trace::disarm();

    std::ostringstream os;
    trace::writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"note\":\"-7\"}"), std::string::npos);
    // Control characters and quotes must be escaped, never raw.
    EXPECT_NE(json.find("json \\\"quoted\\\" name\\n"),
              std::string::npos);

    const std::string path = "trace_test_out.json";
    EXPECT_TRUE(trace::writeJson(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream file_os;
    file_os << in.rdbuf();
    EXPECT_EQ(file_os.str(), json);
    in.close();
    std::remove(path.c_str());
    resetTrace();
}

TEST(Trace, ArmedCompileIsBitIdenticalToDisarmed)
{
    // The observability contract: arming tracing must not perturb a
    // single bit of any compile result. Digest a benchmark disarmed,
    // then again armed, on the same service.
    const auto suite = buildBenchmark("swim");
    const auto m = MachineConfig::fromString("4c2b2l64r");
    CompileService service(2);

    resetTrace();
    ResultDigest disarmed;
    for (const auto &res :
         service.compileSuite(suite, m).loops)
        mixCompileResult(disarmed, res);

    trace::arm();
    ResultDigest armed;
    for (const auto &res :
         service.compileSuite(suite, m).loops)
        mixCompileResult(armed, res);
    trace::disarm();

    EXPECT_EQ(armed.h, disarmed.h);
    // The armed sweep actually recorded the pipeline spans, and the
    // pool one service/job span per job.
    bool saw_compile = false;
    std::size_t jobs = 0;
    for (const auto &ev : trace::snapshot()) {
        saw_compile |= (ev.cat == "pipeline" && ev.name == "compile");
        jobs += ev.cat == "service" && ev.name == "job";
    }
    EXPECT_TRUE(saw_compile);
    EXPECT_EQ(jobs, suite.size());
    resetTrace();
}

TEST(Trace, PhaseSpansSumToTelemetryExactly)
{
    // Each phase is timed once, by its spans: armed, with every
    // compile on this thread, the spans' durations summed in order
    // are the telemetry fields bit for bit.
    const auto loops = buildBenchmark("applu");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    resetTrace();
    trace::arm();
    std::size_t spilled = 0;
    for (const Loop &loop : loops) {
        SCOPED_TRACE(loop.name());
        trace::clear();
        const CompileResult res = compile(loop.ddg, m);
        double partition = 0.0, replicate = 0.0, schedule = 0.0;
        for (const auto &ev : trace::snapshot()) {
            const double ms = trace::toMs(ev.endNs - ev.startNs);
            if (ev.name == "partition" || ev.name == "refine")
                partition += ms;
            else if (ev.name == "replicate")
                replicate += ms;
            else if (ev.name == "schedule" || ev.name == "spill_retry")
                schedule += ms;
        }
        const CompileTelemetry &t = res.telemetry;
        EXPECT_EQ(partition, t.partitionMs);
        EXPECT_EQ(replicate, t.replicationMs);
        EXPECT_EQ(schedule, t.scheduleMs);
        EXPECT_LE(t.partitionMs + t.replicationMs + t.scheduleMs,
                  t.totalMs);
        spilled += t.spillRetries > 0;
    }
    trace::disarm();
    // The spill_retry path ran, so its charge was checked too.
    EXPECT_GT(spilled, 0u);
    resetTrace();
}

/** The deterministic slice of CompileTelemetry, for comparisons. */
struct CounterSlice
{
    std::uint32_t iiAttempts;
    std::uint64_t refineProbes;
    std::uint64_t refineCommits;
    std::uint64_t asapRuns;
    std::uint64_t widthSweeps;
    std::uint64_t analysisRuns;
    std::uint32_t replicationRounds;
    std::int64_t comsRemoved;
    std::uint32_t spillRetries;

    explicit CounterSlice(const CompileTelemetry &t)
        : iiAttempts(t.iiAttempts), refineProbes(t.refineProbes),
          refineCommits(t.refineCommits), asapRuns(t.asapRuns),
          widthSweeps(t.widthSweeps), analysisRuns(t.analysisRuns),
          replicationRounds(t.replicationRounds),
          comsRemoved(t.comsRemoved), spillRetries(t.spillRetries)
    {
    }

    bool operator==(const CounterSlice &o) const
    {
        return iiAttempts == o.iiAttempts &&
               refineProbes == o.refineProbes &&
               refineCommits == o.refineCommits &&
               asapRuns == o.asapRuns && widthSweeps == o.widthSweeps &&
               analysisRuns == o.analysisRuns &&
               replicationRounds == o.replicationRounds &&
               comsRemoved == o.comsRemoved &&
               spillRetries == o.spillRetries;
    }
};

TEST(Telemetry, CountersIndependentOfWorkerCount)
{
    // The structural counters are part of the determinism contract:
    // same job, same counters, at any pool size.
    const auto suite = buildBenchmark("tomcatv");
    const auto m = MachineConfig::fromString("2c1b2l64r");

    CompileService one(1), four(4), hw(0);
    const auto a = one.compileSuite(suite, m).loops;
    const auto b = four.compileSuite(suite, m).loops;
    const auto c = hw.compileSuite(suite, m).loops;
    ASSERT_EQ(a.size(), suite.size());
    ASSERT_EQ(b.size(), suite.size());
    ASSERT_EQ(c.size(), suite.size());

    std::uint64_t asap_runs = 0, width_sweeps = 0, analysis_runs = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_TRUE(CounterSlice(a[i].telemetry) ==
                    CounterSlice(b[i].telemetry))
            << "loop " << i << ": 1 vs 4 workers";
        EXPECT_TRUE(CounterSlice(a[i].telemetry) ==
                    CounterSlice(c[i].telemetry))
            << "loop " << i << ": 1 vs hw workers";
        asap_runs += a[i].telemetry.asapRuns;
        width_sweeps += a[i].telemetry.widthSweeps;
        analysis_runs += a[i].telemetry.analysisRuns;
    }
    // The kernel counters are not vacuous on a clustered machine, and
    // each compile analyses at least its input.
    EXPECT_GT(asap_runs, 0u);
    EXPECT_GT(width_sweeps, 0u);
    EXPECT_GE(analysis_runs, suite.size());
}

TEST(Telemetry, CountersReflectTheCompile)
{
    const auto suite = buildBenchmark("swim");
    const auto m = MachineConfig::fromString("4c2b2l64r");
    const auto res = compile(suite[0].ddg, m);
    ASSERT_TRUE(res.ok);
    const auto &t = res.telemetry;
    // Success at some II means at least one attempt, and the final
    // attempt's ultimate II is what the result reports.
    EXPECT_GE(t.iiAttempts, 1u);
    EXPECT_GE(t.totalMs, 0.0);
    EXPECT_GE(t.refineProbes, t.refineCommits);
    // Every width sweep reads an ASAP estimate computed for it.
    EXPECT_GE(t.asapRuns, t.widthSweeps);
    EXPECT_GT(t.asapRuns, 0u);
}

} // namespace
} // namespace cvliw
