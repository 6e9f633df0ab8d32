/**
 * @file
 * Tracing and telemetry tests: span nesting per thread, the
 * armed-vs-disarmed determinism contract (tracing must be a pure
 * observer), JSON export shape, and CompileTelemetry's deterministic
 * counters across worker counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
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

/** Fresh, quiescent trace state for each test in this binary. */
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
    EXPECT_EQ(trace::bufferedEvents(), 0u);
    EXPECT_TRUE(trace::snapshot().empty());
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
        EXPECT_FALSE(ev.open) << ev.name;
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

/** The deterministic slice of CompileTelemetry, for comparisons. */
struct CounterSlice
{
    std::uint32_t iiAttempts;
    std::uint64_t refineProbes;
    std::uint64_t refineCommits;
    std::uint64_t asapRuns;
    std::uint64_t widthSweeps;
    std::uint32_t replicationRounds;
    std::int64_t comsRemoved;
    std::uint32_t spillRetries;

    explicit CounterSlice(const CompileTelemetry &t)
        : iiAttempts(t.iiAttempts), refineProbes(t.refineProbes),
          refineCommits(t.refineCommits), asapRuns(t.asapRuns),
          widthSweeps(t.widthSweeps),
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

    std::uint64_t asap_runs = 0, width_sweeps = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_TRUE(CounterSlice(a[i].telemetry) ==
                    CounterSlice(b[i].telemetry))
            << "loop " << i << ": 1 vs 4 workers";
        EXPECT_TRUE(CounterSlice(a[i].telemetry) ==
                    CounterSlice(c[i].telemetry))
            << "loop " << i << ": 1 vs hw workers";
        asap_runs += a[i].telemetry.asapRuns;
        width_sweeps += a[i].telemetry.widthSweeps;
    }
    // The kernel counters are not vacuous on a clustered machine.
    EXPECT_GT(asap_runs, 0u);
    EXPECT_GT(width_sweeps, 0u);
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
