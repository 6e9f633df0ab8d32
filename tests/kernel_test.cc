/**
 * @file
 * Kernel view tests: phase/cluster placement, stage annotation and
 * bus rows.
 */

#include <gtest/gtest.h>

#include <sstream>

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
    for (NodeId n : r.finalDdg.nodes())
        expected += (r.finalDdg.node(n).cls != OpClass::Copy);
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

} // namespace
} // namespace cvliw
