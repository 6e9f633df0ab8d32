/**
 * @file
 * CompileService determinism and concurrency tests: the same batch
 * must produce bit-identical results for any worker count (1, 2 and
 * 8), whether jobs mix configs and options in one batch, and across
 * repeated batches on one service instance (whose per-worker caches
 * then serve jobs in a different interleaving). The CI ThreadSanitizer
 * job runs this binary to catch data races in the pool itself.
 */

#include <gtest/gtest.h>

#include <vector>

#include "eval/digest.hh"
#include "eval/service.hh"
#include "workloads/suite_io.hh"

namespace cvliw
{
namespace
{

/** Every 8th loop: 85 loops spanning all ten benchmarks and sizes. */
const std::vector<Loop> &
sampleLoops()
{
    static const std::vector<Loop> sample = [] {
        const auto suite = loadOrBuildSuite(42);
        std::vector<Loop> out;
        for (std::size_t i = 0; i < suite.size(); i += 8)
            out.push_back(suite[i]);
        return out;
    }();
    return sample;
}

/** Field-level equality, stronger diagnostics than the digest. */
void
expectResultsEqual(const SuiteResult &a, const SuiteResult &b)
{
    ASSERT_EQ(a.loops.size(), b.loops.size());
    for (std::size_t i = 0; i < a.loops.size(); ++i) {
        const CompileResult &x = a.loops[i];
        const CompileResult &y = b.loops[i];
        ASSERT_EQ(x.ok, y.ok) << "loop " << i;
        EXPECT_EQ(x.ii, y.ii) << "loop " << i;
        EXPECT_EQ(x.mii, y.mii) << "loop " << i;
        EXPECT_EQ(x.spills, y.spills) << "loop " << i;
        EXPECT_EQ(x.comsFinal, y.comsFinal) << "loop " << i;
        EXPECT_EQ(x.schedule.length, y.schedule.length) << "loop " << i;
        EXPECT_EQ(x.schedule.start, y.schedule.start) << "loop " << i;
        EXPECT_EQ(x.schedule.busOf, y.schedule.busOf) << "loop " << i;
        EXPECT_EQ(x.schedule.maxLive, y.schedule.maxLive)
            << "loop " << i;
        EXPECT_EQ(x.partition.vec(), y.partition.vec()) << "loop " << i;
        EXPECT_EQ(x.iiIncreases, y.iiIncreases) << "loop " << i;
    }
    EXPECT_EQ(digestSuiteResult(a), digestSuiteResult(b));
}

TEST(CompileService, WorkerCountsProduceBitIdenticalResults)
{
    const auto &loops = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");

    CompileService one(1);
    CompileService two(2);
    CompileService eight(8);
    EXPECT_EQ(one.numWorkers(), 1);
    EXPECT_EQ(two.numWorkers(), 2);
    EXPECT_EQ(eight.numWorkers(), 8);

    const SuiteResult r1 = one.compileSuite(loops, m);
    const SuiteResult r2 = two.compileSuite(loops, m);
    const SuiteResult r8 = eight.compileSuite(loops, m);
    expectResultsEqual(r1, r2);
    expectResultsEqual(r1, r8);
}

TEST(CompileService, MatchesDirectCompile)
{
    const auto &loops = sampleLoops();
    const auto m = MachineConfig::fromString("2c1b2l64r");

    CompileService service(4);
    const SuiteResult pooled = service.compileSuite(loops, m);

    SuiteResult direct;
    for (const Loop &loop : loops)
        direct.loops.push_back(compile(loop.ddg, m));
    expectResultsEqual(pooled, direct);
}

TEST(CompileService, RepeatedBatchesOnWarmCachesStayIdentical)
{
    const auto &loops = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b4l64r");

    // Second run hits per-worker caches warmed by the first, with a
    // different job-to-worker interleaving; results must not care.
    CompileService service(3);
    const SuiteResult cold = service.compileSuite(loops, m);
    const SuiteResult warm = service.compileSuite(loops, m);
    expectResultsEqual(cold, warm);
}

TEST(CompileService, MultiConfigBatchMatchesPerConfigRuns)
{
    const auto &loops = sampleLoops();
    const std::vector<MachineConfig> machs = {
        MachineConfig::fromString("2c1b2l64r"),
        MachineConfig::fromString("4c2b2l64r"),
        MachineConfig::fromString("4c2b4l64r"),
    };

    CompileService service(4);
    const std::vector<SuiteResult> batched =
        service.compileSuite(loops, machs);
    ASSERT_EQ(batched.size(), machs.size());
    for (std::size_t c = 0; c < machs.size(); ++c) {
        const SuiteResult alone =
            service.compileSuite(loops, machs[c]);
        expectResultsEqual(batched[c], alone);
    }
}

TEST(CompileService, MixedJobBatch)
{
    const auto &loops = sampleLoops();
    const auto m2 = MachineConfig::fromString("2c1b2l64r");
    const auto m4 = MachineConfig::fromString("4c2b2l64r");
    PipelineOptions no_repl;
    no_repl.replication = false;

    // One batch interleaving machines and per-job options (including
    // the defaulted-opts path).
    std::vector<CompileService::Job> jobs;
    for (std::size_t i = 0; i < 24 && i < loops.size(); ++i) {
        CompileService::Job job;
        job.ddg = &loops[i].ddg;
        job.mach = (i % 2 == 0) ? &m2 : &m4;
        if (i % 3 == 0)
            job.opts = &no_repl;
        jobs.push_back(job);
    }

    CompileService service(4);
    const std::vector<CompileResult> batch = service.compileBatch(jobs);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const CompileResult direct =
            jobs[i].opts ? compile(*jobs[i].ddg, *jobs[i].mach,
                                   *jobs[i].opts)
                         : compile(*jobs[i].ddg, *jobs[i].mach);
        ResultDigest a, b;
        mixCompileResult(a, batch[i]);
        mixCompileResult(b, direct);
        EXPECT_EQ(a.h, b.h) << "job " << i;
    }
}

TEST(CompileService, EmptyBatch)
{
    CompileService service(2);
    EXPECT_TRUE(service.compileBatch({}).empty());
    const SuiteResult r =
        service.compileSuite({}, MachineConfig::unified());
    EXPECT_TRUE(r.loops.empty());
}

TEST(CompileService, FacadeFlattensFailuresToNotOk)
{
    // The synchronous facade never throws for a failed or timed-out
    // job: the slot holds a default result (ok == false), the other
    // slots are untouched.
    const auto &loops = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");

    PipelineOptions instant_timeout;
    instant_timeout.stepBudget = -1; // expires at the first checkpoint

    std::vector<CompileService::Job> jobs;
    for (std::size_t i = 0; i < 6; ++i) {
        CompileService::Job job;
        job.ddg = &loops[i].ddg;
        job.mach = &m;
        if (i == 2)
            job.opts = &instant_timeout;
        jobs.push_back(job);
    }

    CompileService service(2);
    const std::vector<CompileResult> batch = service.compileBatch(jobs);
    ASSERT_EQ(batch.size(), jobs.size());
    EXPECT_FALSE(batch[2].ok);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i == 2)
            continue;
        EXPECT_TRUE(batch[i].ok) << "job " << i;
        ResultDigest a, b;
        mixCompileResult(a, batch[i]);
        mixCompileResult(b, compile(*jobs[i].ddg, m));
        EXPECT_EQ(a.h, b.h) << "job " << i;
    }
}

TEST(CompileService, InvalidInputFailsOnlyItsJob)
{
    // A graph whose distance-0 edges close a cycle is a typed compile
    // error: its job ends Failed and the rest of the batch finishes.
    Ddg cyclic;
    const NodeId a = cyclic.addNode(OpClass::IntAlu, "a");
    const NodeId b = cyclic.addNode(OpClass::IntAlu, "b");
    cyclic.addEdge(a, b, EdgeKind::RegFlow, 0);
    cyclic.addEdge(b, a, EdgeKind::RegFlow, 0);

    const auto &loops = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    constexpr std::size_t kBad = 3;
    std::vector<CompileService::Job> jobs;
    for (std::size_t i = 0; i < 8; ++i) {
        CompileService::Job job;
        job.ddg = i == kBad ? &cyclic : &loops[i].ddg;
        job.mach = &m;
        jobs.push_back(job);
    }

    CompileService service(2);
    const auto handle = service.frontier().submit(jobs);
    handle.wait();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto view = handle.job(i);
        if (i == kBad) {
            EXPECT_EQ(view.outcome, JobOutcome::Failed);
            EXPECT_NE(view.error.find("cycle"), std::string::npos)
                << view.error;
            continue;
        }
        ASSERT_EQ(view.outcome, JobOutcome::Ok) << "job " << i;
        ResultDigest got, want;
        mixCompileResult(got, *view.result);
        mixCompileResult(want, compile(*jobs[i].ddg, m));
        EXPECT_EQ(got.h, want.h) << "job " << i;
    }
}

TEST(CompileService, RunSuiteDelegatesToService)
{
    const auto &loops = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    const SuiteResult via_run_suite = runSuite(loops, m, {}, 2);
    CompileService service(5);
    expectResultsEqual(via_run_suite, service.compileSuite(loops, m));
}

} // namespace
} // namespace cvliw
