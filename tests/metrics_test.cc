/**
 * @file
 * Metric tests: Texec/IPC formulas, aggregation and harmonic mean.
 */

#include <gtest/gtest.h>

#include "ddg/builder.hh"
#include "eval/metrics.hh"
#include "eval/runner.hh"
#include "eval/service.hh"

namespace cvliw
{
namespace
{

TEST(Metrics, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(hmean({2.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(hmean({1.0, 3.0}), 1.5);
    EXPECT_DOUBLE_EQ(hmean({}), 0.0);
    // Non-positive entries are skipped.
    EXPECT_DOUBLE_EQ(hmean({0.0, 4.0}), 4.0);
}

TEST(Metrics, AccumulateBasics)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("st", OpClass::Store, {"ld"});
    const Ddg g = b.take();
    const auto r = compile(g, MachineConfig::unified());
    ASSERT_TRUE(r.ok);

    BenchmarkAggregate agg;
    agg.name = "x";
    LoopProfile prof{10.0, 50.0};
    accumulate(agg, r, prof);
    EXPECT_EQ(agg.loops, 1);
    EXPECT_DOUBLE_EQ(agg.usefulInstrs, 2.0 * 10.0 * 50.0);
    EXPECT_DOUBLE_EQ(agg.cycles, r.cycles(50.0, 10.0));
    EXPECT_GT(agg.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(agg.addedFraction(), 0.0);
}

TEST(Metrics, IpcBoundedByIssueWidth)
{
    const auto suite = buildBenchmark("swim");
    const auto m = MachineConfig::fromString("2c1b2l64r");
    CompileService service(2);
    const auto res = service.compileSuite(suite, m);
    const auto aggs = aggregateByBenchmark(suite, res);
    ASSERT_EQ(aggs.size(), 1u);
    const double ipc = aggs.at("swim").ipc();
    EXPECT_GT(ipc, 0.0);
    EXPECT_LE(ipc, 12.0); // machine issue width
}

TEST(Metrics, RunnerKeepsSuiteOrder)
{
    const auto suite = buildBenchmark("mgrid");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    CompileService service(2);
    const auto res = service.compileSuite(suite, m);
    ASSERT_EQ(res.loops.size(), suite.size());
    const auto ipcs = benchmarkIpcs(suite, res);
    ASSERT_EQ(ipcs.size(), 1u);
    EXPECT_EQ(ipcs[0].first, "mgrid");
    EXPECT_NEAR(suiteHmeanIpc(suite, res), ipcs[0].second, 1e-12);
}

TEST(Metrics, ParallelAndSerialRunsAgree)
{
    const auto suite = buildBenchmark("tomcatv");
    const auto m = MachineConfig::fromString("4c2b2l64r");
    CompileService one(1);
    CompileService four(4);
    const auto serial = one.compileSuite(suite, m);
    const auto parallel = four.compileSuite(suite, m);
    ASSERT_EQ(serial.loops.size(), parallel.loops.size());
    for (std::size_t i = 0; i < serial.loops.size(); ++i) {
        EXPECT_EQ(serial.loops[i].ii, parallel.loops[i].ii);
        EXPECT_EQ(serial.loops[i].schedule.length,
                  parallel.loops[i].schedule.length);
        EXPECT_EQ(serial.loops[i].repl.replicasAdded,
                  parallel.loops[i].repl.replicasAdded);
    }
}

TEST(Metrics, AddedFractionCountsReplicas)
{
    BenchmarkAggregate agg;
    agg.usefulInstrs = 1000.0;
    agg.addedByCat = {10.0, 20.0, 10.0};
    EXPECT_DOUBLE_EQ(agg.addedFraction(), 0.04);
}

TEST(Metrics, ComsRemovedFraction)
{
    BenchmarkAggregate agg;
    agg.comsInitialDyn = 300.0;
    agg.comsFinalDyn = 200.0;
    EXPECT_NEAR(agg.comsRemovedFraction(), 1.0 / 3.0, 1e-12);
    BenchmarkAggregate none;
    EXPECT_DOUBLE_EQ(none.comsRemovedFraction(), 0.0);
}

} // namespace
} // namespace cvliw
