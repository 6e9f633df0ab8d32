/**
 * @file
 * Section-5.1 tests: schedule-length replication shortens the
 * critical path without raising the II, and never applies when it
 * would not help.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/pipeline.hh"
#include "ddg/builder.hh"
#include "vliw/checker.hh"
#include "vliw/simulator.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

/**
 * A loop whose critical path crosses clusters: the producer chain in
 * one cluster feeds a long consumer chain that the partitioner will
 * place elsewhere (resources force the split).
 */
Ddg
crossClusterCriticalPath()
{
    DdgBuilder b;
    // Heavy fp work so that 2 clusters are both loaded.
    b.op("ld0", OpClass::Load);
    b.op("a0", OpClass::FpAlu, {"ld0"});
    b.op("a1", OpClass::FpAlu, {"a0"});
    b.op("a2", OpClass::FpAlu, {"a1"});
    b.op("ld1", OpClass::Load);
    b.op("c0", OpClass::FpAlu, {"ld1", "a0"});
    b.op("c1", OpClass::FpAlu, {"c0"});
    b.op("c2", OpClass::FpAlu, {"c1"});
    b.op("st0", OpClass::Store, {"a2"});
    b.op("st1", OpClass::Store, {"c2"});
    return b.take();
}

TEST(LengthReplication, NeverIncreasesIiOrLength)
{
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const Ddg g = crossClusterCriticalPath();

    PipelineOptions plain;
    const auto base = compile(g, m, plain);
    ASSERT_TRUE(base.ok);

    PipelineOptions with51;
    with51.lengthReplication = true;
    const auto opt = compile(g, m, with51);
    ASSERT_TRUE(opt.ok);

    EXPECT_EQ(opt.ii, base.ii);
    EXPECT_LE(opt.schedule.length, base.schedule.length);
    EXPECT_EQ(opt.lengthSaved,
              base.schedule.length - opt.schedule.length);
    EXPECT_TRUE(
        checkSchedule(opt.finalDdg, m, opt.partition, opt.schedule)
            .empty());
}

TEST(LengthReplication, NoOpOnUnified)
{
    const Ddg g = crossClusterCriticalPath();
    PipelineOptions with51;
    with51.lengthReplication = true;
    const auto r = compile(g, MachineConfig::unified(), with51);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.lengthSaved, 0);
    EXPECT_EQ(r.repl.replicasAdded, 0);
}

TEST(LengthReplication, SuiteWideSmallGains)
{
    // Section 5.1's conclusion: benefits exist but are small. Verify
    // the machinery is safe across a real benchmark population.
    const auto loops = buildBenchmark("applu");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    PipelineOptions with51;
    with51.lengthReplication = true;
    int improved = 0;
    for (std::size_t i = 0; i < 10 && i < loops.size(); ++i) {
        const auto base = compile(loops[i].ddg, m);
        const auto opt = compile(loops[i].ddg, m, with51);
        ASSERT_TRUE(base.ok);
        ASSERT_TRUE(opt.ok);
        EXPECT_EQ(opt.ii, base.ii) << loops[i].name();
        EXPECT_LE(opt.schedule.length, base.schedule.length);
        improved += (opt.lengthSaved > 0);
    }
    // Not asserted > 0: gains are legitimately rare (Figure 12).
    SUCCEED() << improved << " loops improved";
}

/**
 * Section 5.1 rebuilds the graph from the pre-copy graph, which holds
 * none of the spill code appended after the copies, so it runs only
 * on attempts that spilled nothing. Each of these loops spills on its
 * final attempt. On the first two a spill reload is a critical copy's
 * producer, a node the pre-copy graph does not have; on the other
 * three the rebuilt graph would drop the spill code that `spills`
 * counts. Each result must check and simulate and hold a store and a
 * reload per spilled value.
 */
TEST(LengthReplication, SkipsAttemptsThatSpilled)
{
    struct Case
    {
        std::uint64_t seed;
        const char *loop;
        const char *cfg;
    };
    const Case cases[] = {
        {1, "turb3d#13", "2c1b2l32r"}, {2, "su2cor#35", "2c1b2l32r"},
        {42, "hydro2d#89", "4c2b2l32r"}, {3, "su2cor#57", "4c2b2l32r"},
        {4, "apsi#107", "4c4b4l64r"},
    };
    PipelineOptions with51;
    with51.lengthReplication = true;
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.loop) + " (seed " +
                     std::to_string(c.seed) + ") on " + c.cfg);
        const auto suite = buildSuite(c.seed);
        const auto loop =
            std::find_if(suite.begin(), suite.end(), [&](const Loop &l) {
                return l.name() == c.loop;
            });
        ASSERT_NE(loop, suite.end());
        const Ddg input = loop->ddg;
        const auto m = MachineConfig::fromString(c.cfg);
        const auto r = compile(input, m, with51);
        ASSERT_TRUE(r.ok);
        EXPECT_GT(r.spills, 0);
        EXPECT_EQ(r.lengthSaved, 0);

        const Ddg final_ddg = r.finalDdg;
        int spill_nodes = 0;
        for (NodeId n : final_ddg.nodes())
            spill_nodes += final_ddg.node(n).isSpill;
        EXPECT_EQ(spill_nodes, 2 * r.spills);
        const auto rep =
            simulate(final_ddg, m, r.partition, r.schedule, input);
        EXPECT_TRUE(rep.ok)
            << (rep.errors.empty() ? "mismatch" : rep.errors.front());
    }
}

} // namespace
} // namespace cvliw
