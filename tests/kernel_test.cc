/**
 * @file
 * Kernel view tests: phase/cluster placement, stage annotation and
 * bus rows.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/pipeline.hh"
#include "ddg/builder.hh"
#include "vliw/kernel.hh"

namespace cvliw
{
namespace
{

TEST(Kernel, PlacesOpsInPhaseAndCluster)
{
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("w", OpClass::IntAlu, {"p"});
    b.liveOut("w");
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const auto r = compile(g, m);
    ASSERT_TRUE(r.ok);

    const KernelView kv(r.finalDdg, m, r.partition, r.schedule);
    EXPECT_EQ(kv.ii(), r.ii);
    EXPECT_EQ(kv.stageCount(), r.schedule.stageCount);

    // Every live non-copy op appears exactly once across the cells.
    int total = 0;
    for (int t = 0; t < kv.ii(); ++t) {
        for (int c = 0; c < m.numClusters(); ++c)
            total += static_cast<int>(kv.ops(t, c).size());
    }
    int expected = 0;
    const Ddg final_ddg = r.finalDdg;
    for (NodeId n : final_ddg.nodes())
        expected += (final_ddg.node(n).cls != OpClass::Copy);
    EXPECT_EQ(total, expected);
}

TEST(Kernel, PrintContainsStagesAndBusColumn)
{
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("w", OpClass::IntAlu, {"p"});
    b.liveOut("w");
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const auto r = compile(g, m);
    ASSERT_TRUE(r.ok);

    std::ostringstream os;
    KernelView(r.finalDdg, m, r.partition, r.schedule).print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("kernel: II="), std::string::npos);
    EXPECT_NE(out.find("bus"), std::string::npos);
    EXPECT_NE(out.find("/s"), std::string::npos); // stage tag
}

TEST(Kernel, StageTagsMatchStartCycles)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("f", OpClass::FpDiv, {"ld"}); // long latency forces stages
    b.op("st", OpClass::Store, {"f"});
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    const auto r = compile(g, m);
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.schedule.stageCount, 1);
    const KernelView kv(r.finalDdg, m, r.partition, r.schedule);
    // The store starts late: its stage tag must be > 0.
    const int st_start = r.schedule.start[b.id("st")];
    const int phase = st_start % r.ii;
    const std::string st = "n" + std::to_string(b.id("st"));
    bool found = false;
    for (const std::string &cell : kv.ops(phase, 0)) {
        if (cell.rfind(st + "/", 0) == 0) {
            EXPECT_EQ(cell, st + "/s" + std::to_string(st_start / r.ii));
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

/** A two-op loop compiled for 2c1b2l64r. */
struct TwoOps
{
    DdgBuilder b;
    Ddg g;
    MachineConfig m = MachineConfig::fromString("2c1b2l64r");
    CompileResult r;

    TwoOps()
    {
        b.op("p", OpClass::IntAlu);
        b.op("w", OpClass::IntAlu, {"p"});
        b.liveOut("w");
        g = b.take();
        r = compile(g, m);
    }
};

TEST(Kernel, ZeroIiThrows)
{
    TwoOps t;
    ASSERT_TRUE(t.r.ok);
    Schedule s = t.r.schedule;
    s.ii = 0;
    EXPECT_THROW(KernelView(t.g, t.m, t.r.partition, s),
                 std::invalid_argument);
}

TEST(Kernel, UnscheduledNodeThrowsNamingIt)
{
    TwoOps t;
    ASSERT_TRUE(t.r.ok);
    Schedule s = t.r.schedule;
    s.start.resize(1);
    try {
        KernelView(t.g, t.m, t.r.partition, s);
        ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()), "n1 is not scheduled");
    }
}

TEST(Kernel, NodeOnNoClusterOfTheMachineThrows)
{
    TwoOps t;
    ASSERT_TRUE(t.r.ok);
    // A 4-cluster partition on the 2-cluster machine, then one that
    // leaves w unassigned.
    Partition wide(4, t.g.numNodeSlots());
    wide.assign(t.b.id("p"), 0);
    wide.assign(t.b.id("w"), 3);
    EXPECT_THROW(KernelView(t.g, t.m, wide, t.r.schedule),
                 std::invalid_argument);
    Partition short_part(2, 1);
    short_part.assign(t.b.id("p"), 0);
    EXPECT_THROW(KernelView(t.g, t.m, short_part, t.r.schedule),
                 std::invalid_argument);
}

TEST(Kernel, OpsOutsideTheKernelThrowOutOfRange)
{
    TwoOps t;
    ASSERT_TRUE(t.r.ok);
    const KernelView kv(t.r.finalDdg, t.m, t.r.partition, t.r.schedule);
    EXPECT_NO_THROW(kv.ops(kv.ii() - 1, 1));
    EXPECT_THROW(kv.ops(kv.ii(), 0), std::out_of_range);
    EXPECT_THROW(kv.ops(-1, 0), std::out_of_range);
    EXPECT_THROW(kv.ops(0, 2), std::out_of_range);
    EXPECT_THROW(kv.ops(0, -1), std::out_of_range);
}

} // namespace
} // namespace cvliw
