/**
 * @file
 * CompileService tests: the same batch must produce bit-identical
 * results for any worker count (1, 2 and 8), for batches mixing
 * configs and options, across repeated batches on one service, and
 * for concurrent callers. A job fails, with a non-empty error, exactly
 * when its compile throws, without disturbing the other jobs of its
 * batch, and a worker whose job threw keeps serving bit-exact
 * results. The failing jobs are real
 * inputs: graphs whose distance-0 edges close a cycle, which
 * compile() rejects with InvalidInput, and a machine without memory
 * ports, which it rejects with std::invalid_argument. A batch with a
 * null graph or machine throws before any job runs. Two client
 * threads may convert and check one batch's result graphs at once.
 * The CI ThreadSanitizer and ASan+UBSan jobs run this binary to catch
 * data races and memory errors in the pool and the shared records.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "eval/digest.hh"
#include "eval/service.hh"
#include "expect_invalid.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "vliw/checker.hh"
#include "vliw/simulator.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

/** Every 8th loop: 85 loops spanning all ten benchmarks and sizes. */
const std::vector<Loop> &
sampleLoops()
{
    static const std::vector<Loop> sample = [] {
        const auto suite = buildSuite(42);
        std::vector<Loop> out;
        for (std::size_t i = 0; i < suite.size(); i += 8)
            out.push_back(suite[i]);
        return out;
    }();
    return sample;
}

std::vector<CompileService::Job>
jobsFor(const std::vector<Loop> &loops, const MachineConfig &mach)
{
    std::vector<CompileService::Job> jobs(loops.size());
    for (std::size_t i = 0; i < loops.size(); ++i)
        jobs[i] = CompileService::Job{&loops[i].ddg, &mach, nullptr};
    return jobs;
}

std::uint64_t
digestOf(const CompileResult &r)
{
    ResultDigest d;
    mixCompileResult(d, r);
    return d.h;
}

/** Digest of a direct compile(ddg, m): the oracle of a pooled job. */
std::uint64_t
oracleDigest(const Ddg &ddg, const MachineConfig &m)
{
    return digestOf(compile(ddg, m));
}

/** a -> b -> a, both at distance 0: compile() throws InvalidInput. */
Ddg
zeroDistanceCycle()
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    const NodeId b = g.addNode(OpClass::IntAlu);
    g.addEdge(a, b, EdgeKind::RegFlow, 0);
    g.addEdge(b, a, EdgeKind::RegFlow, 0);
    return g;
}

/** What a direct compile of @p graph on @p m throws as InvalidInput. */
std::string
invalidInputOf(const DdgRecords &graph, const MachineConfig &m)
{
    try {
        compile(graph, m);
    } catch (const InvalidInput &err) {
        return err.what();
    }
    ADD_FAILURE() << "compile did not throw InvalidInput";
    return {};
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

TEST(CompileService, DefaultWorkerCountFollowsAffinityMask)
{
#if defined(__linux__)
    // Under `taskset -c N` the default pool has one worker, not one
    // per CPU of the host.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

    const char *env = std::getenv("CVLIW_THREADS");
    const std::string saved_env = env ? env : "";
    unsetenv("CVLIW_THREADS");
    const int narrowed = CompileService::defaultWorkerCount();
    if (env)
        setenv("CVLIW_THREADS", saved_env.c_str(), 1);
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);

    EXPECT_EQ(narrowed, 1);
#else
    GTEST_SKIP() << "no CPU affinity mask on this platform";
#endif
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
    const auto batch = service.compileBatch(jobs);
    ASSERT_EQ(batch.results.size(), jobs.size());
    ASSERT_EQ(batch.errors.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(batch.errors[i].empty()) << "job " << i;
        const CompileResult direct =
            jobs[i].opts ? compile(*jobs[i].ddg, *jobs[i].mach,
                                   *jobs[i].opts)
                         : compile(*jobs[i].ddg, *jobs[i].mach);
        EXPECT_EQ(digestOf(batch.results[i]), digestOf(direct))
            << "job " << i;
    }
}

TEST(CompileService, EmptyBatch)
{
    CompileService service(2);
    const auto batch = service.compileBatch({});
    EXPECT_TRUE(batch.results.empty());
    EXPECT_TRUE(batch.errors.empty());
    const SuiteResult r =
        service.compileSuite({}, MachineConfig::unified());
    EXPECT_TRUE(r.loops.empty());
}

TEST(CompileService, InvalidInputFailsOnlyItsJob)
{
    // A graph whose distance-0 edges close a cycle is a typed compile
    // error: its job ends Failed with a "cycle" error and a default
    // result, and every other job of the batch is bit-exact to a
    // direct compile(). Inputs: job 3 on a 2-worker pool, then an
    // Rng-seeded quarter of the jobs on a pool of the default size,
    // over two rounds of two configs; afterwards the same pool (its
    // workers' caches used by throwing jobs or not) serves a clean
    // batch bit-exactly. A job's graph is records, as a hand-built
    // graph becomes one; the worker's conversion keeps the typed error.
    const DdgRecords cyclic(zeroDistanceCycle());
    const auto &sample = sampleLoops();
    const std::vector<Loop> loops(sample.begin(), sample.begin() + 24);
    const std::vector<MachineConfig> machs = {
        MachineConfig::fromString("2c1b2l64r"),
        MachineConfig::fromString("4c2b2l64r"),
    };
    std::vector<std::vector<std::uint64_t>> oracle(machs.size());
    for (std::size_t c = 0; c < machs.size(); ++c) {
        for (const Loop &loop : loops)
            oracle[c].push_back(oracleDigest(loop.ddg, machs[c]));
    }
    const std::uint64_t empty = digestOf(CompileResult{});
    const std::string cycle_error = invalidInputOf(cyclic, machs[0]);
    ASSERT_EQ(cycle_error, invalidInputOf(cyclic, machs[1]));

    // One batch of every loop on machs[c], cyclic where @p bad says.
    const auto check = [&](CompileService &service, std::size_t c,
                           const std::vector<bool> &bad) {
        std::vector<CompileService::Job> jobs = jobsFor(loops, machs[c]);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (bad[i])
                jobs[i].ddg = &cyclic;
        }
        const auto batch = service.compileBatch(jobs);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("config " + std::to_string(c) + " job " +
                         std::to_string(i));
            if (bad[i]) {
                EXPECT_NE(batch.errors[i].find("cycle"),
                          std::string::npos)
                    << batch.errors[i];
                EXPECT_EQ(batch.errors[i], cycle_error);
                EXPECT_EQ(digestOf(batch.results[i]), empty);
                continue;
            }
            ASSERT_TRUE(batch.errors[i].empty()) << batch.errors[i];
            EXPECT_EQ(digestOf(batch.results[i]), oracle[c][i]);
        }
    };

    std::vector<bool> bad(loops.size(), false);
    bad[3] = true;
    {
        CompileService two(2);
        check(two, 1, bad);
    }

    Rng rng(19);
    std::size_t cyclic_jobs = 0;
    CompileService service;
    for (int round = 0; round < 2; ++round) {
        for (std::size_t c = 0; c < machs.size(); ++c) {
            for (std::size_t i = 0; i < bad.size(); ++i) {
                bad[i] = rng.chance(0.25);
                cyclic_jobs += bad[i];
            }
            check(service, c, bad);
        }
    }
    EXPECT_GT(cyclic_jobs, 0u);
    EXPECT_LT(cyclic_jobs, 4 * loops.size());
    check(service, 0, std::vector<bool>(loops.size(), false));
}

TEST(CompileService, MachineWithoutMemoryPortsFailsEveryJob)
{
    // Every swim loop loads, and this machine has no memory port:
    // resourceMii throws std::invalid_argument, and the pool turns
    // each throw into a failed job instead of ending the process.
    const auto loops = buildBenchmark("swim");
    const auto m =
        MachineConfig::custom(2, ClusterResources{2, 2, 0, 0}, 1, 1, 64);
    CompileService service(2);
    const auto batch = service.compileBatch(jobsFor(loops, m));
    ASSERT_EQ(batch.errors.size(), loops.size());
    for (std::size_t i = 0; i < loops.size(); ++i) {
        EXPECT_EQ(batch.errors[i],
                  "machine has no mem-port units but the loop needs them")
            << "job " << i;
        EXPECT_FALSE(batch.results[i].ok) << "job " << i;
    }
}

TEST(CompileService, WorkerKeepsServingBitExactAfterAThrow)
{
    // On one worker, the third job's graph closes a distance-0 cycle,
    // so its compile throws mid-batch and the same worker then runs
    // every later job on the caches the throwing job used; those
    // results must equal direct compiles.
    const auto &loops = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    const std::vector<Loop> some(loops.begin(), loops.begin() + 8);
    std::vector<std::uint64_t> oracle;
    for (const Loop &loop : some)
        oracle.push_back(oracleDigest(loop.ddg, m));

    const DdgRecords cyclic(zeroDistanceCycle());
    std::vector<CompileService::Job> jobs = jobsFor(some, m);
    jobs[2].ddg = &cyclic;
    CompileService service(1);
    const auto batch = service.compileBatch(jobs);
    EXPECT_NE(batch.errors[2].find("cycle"), std::string::npos)
        << batch.errors[2];
    EXPECT_FALSE(batch.results[2].ok);
    for (std::size_t i = 0; i < some.size(); ++i) {
        if (i == 2)
            continue;
        ASSERT_TRUE(batch.errors[i].empty()) << "job " << i;
        EXPECT_EQ(digestOf(batch.results[i]), oracle[i]) << "job " << i;
    }
}

TEST(CompileService, ConcurrentCallersMatchSerialCalls)
{
    // Two client threads share one service; the service runs their
    // batches one at a time, and each gets what a serial call gets.
    const auto &loops = sampleLoops();
    const auto ma = MachineConfig::fromString("4c2b2l64r");
    const auto mb = MachineConfig::fromString("2c1b2l64r");

    CompileService service(3);
    const auto serial_a = service.compileBatch(jobsFor(loops, ma));
    const auto serial_b = service.compileBatch(jobsFor(loops, mb));

    CompileService::BatchResult par_a, par_b;
    std::thread ta([&] {
        for (int round = 0; round < 3; ++round)
            par_a = service.compileBatch(jobsFor(loops, ma));
    });
    std::thread tb([&] {
        for (int round = 0; round < 3; ++round)
            par_b = service.compileBatch(jobsFor(loops, mb));
    });
    ta.join();
    tb.join();
    for (std::size_t i = 0; i < loops.size(); ++i) {
        EXPECT_EQ(digestOf(par_a.results[i]),
                  digestOf(serial_a.results[i]))
            << "job " << i;
        EXPECT_EQ(digestOf(par_b.results[i]),
                  digestOf(serial_b.results[i]))
            << "job " << i;
    }
    EXPECT_EQ(par_a.errors, serial_a.errors);
    EXPECT_EQ(par_b.errors, serial_b.errors);
}

TEST(CompileService, NullGraphOrMachineThrowsBeforeAnyJobRuns)
{
    const auto &loops = sampleLoops();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    CompileService service(2);
    std::vector<CompileService::Job> jobs = jobsFor(loops, m);
    jobs[3].ddg = nullptr;
    EXPECT_INVALID_ARGUMENT(service.compileBatch(jobs),
                            "compile job 3 has a null graph");
    jobs[3].ddg = &loops[3].ddg;
    jobs[0].mach = nullptr;
    EXPECT_INVALID_ARGUMENT(service.compileBatch(jobs),
                            "compile job 0 has a null machine");

    // The service is untouched and serves the mended batch.
    jobs[0].mach = &m;
    const auto batch = service.compileBatch(jobs);
    for (std::size_t i = 0; i < loops.size(); ++i) {
        ASSERT_TRUE(batch.errors[i].empty()) << "job " << i;
        EXPECT_EQ(digestOf(batch.results[i]), oracleDigest(loops[i].ddg, m))
            << "job " << i;
    }
}

TEST(CompileService, TwoClientThreadsConvertAndCheckOneBatch)
{
    // Two client threads read the records of one 2-worker batch at
    // once: each converts every result graph to a Ddg (sharing the
    // record arrays, some of them the input's) and checks and
    // simulates it. Both must see every result valid, and the same.
    const auto &loops = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    CompileService service(2);
    const auto batch = service.compileBatch(jobsFor(loops, m));

    const auto checkAll = [&](long long &values, int &bad) {
        for (std::size_t i = 0; i < loops.size(); ++i) {
            const CompileResult &r = batch.results[i];
            const Ddg g = r.finalDdg;
            bad += !checkSchedule(g, m, r.partition, r.schedule).empty();
            const auto rep =
                simulate(g, m, r.partition, r.schedule, loops[i].ddg, 3);
            bad += !rep.ok;
            values += rep.valuesChecked;
        }
    };
    long long values_a = 0, values_b = 0;
    int bad_a = 0, bad_b = 0;
    std::thread ta([&] { checkAll(values_a, bad_a); });
    std::thread tb([&] { checkAll(values_b, bad_b); });
    ta.join();
    tb.join();
    EXPECT_EQ(bad_a, 0);
    EXPECT_EQ(bad_b, 0);
    EXPECT_GT(values_a, 0);
    EXPECT_EQ(values_a, values_b);
}

TEST(CompileService, CompileSuiteWarnsOncePerFailedLoop)
{
    // One line per loop that did not compile, naming the loop, the
    // config and the error; none for the loops that did.
    const auto &loops = sampleLoops();
    std::vector<Loop> suite(loops.begin(), loops.begin() + 4);
    suite[1].ddg = DdgRecords(zeroDistanceCycle());
    const auto m = MachineConfig::fromString("4c2b2l64r");

    CompileService service(2);
    const auto warns0 = logging::warnCount();
    const SuiteResult r = service.compileSuite(suite, m);
    EXPECT_EQ(logging::warnCount(), warns0 + 1);
    EXPECT_FALSE(r.loops[1].ok);
    EXPECT_TRUE(r.loops[0].ok && r.loops[2].ok && r.loops[3].ok);

    const auto per_config = service.compileSuite(
        suite, {m, MachineConfig::fromString("2c1b2l64r")});
    EXPECT_EQ(logging::warnCount(), warns0 + 3);
    EXPECT_FALSE(per_config[0].loops[1].ok);
    EXPECT_FALSE(per_config[1].loops[1].ok);
}

} // namespace
} // namespace cvliw
