/**
 * @file
 * Modulo scheduler tests: dependence satisfaction, modulo resource
 * legality, recurrence handling, copy placement, failure causes and
 * the Figure-12 zero-latency variant.
 */

#include <gtest/gtest.h>

#include "ddg/builder.hh"
#include "sched/comms.hh"
#include "sched/copies.hh"
#include "sched/mii.hh"
#include "sched/scheduler.hh"
#include "vliw/checker.hh"

namespace cvliw
{
namespace
{

Partition
allInCluster(const Ddg &g, int clusters, int c)
{
    Partition p(clusters, g.numNodeSlots());
    for (NodeId n : g.nodes())
        p.assign(n, c);
    return p;
}

TEST(Scheduler, SimpleChainAtMii)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("f", OpClass::FpAlu, {"ld"});
    b.op("st", OpClass::Store, {"f"});
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();
    const auto part = allInCluster(g, 1, 0);

    const auto a = scheduleAtIi(g, m, part, 1);
    ASSERT_TRUE(a.ok);
    EXPECT_TRUE(checkSchedule(g, m, part, a.sched).empty());
    // Chain latencies respected.
    EXPECT_GE(a.sched.start[b.id("f")], a.sched.start[b.id("ld")] + 2);
    EXPECT_GE(a.sched.start[b.id("st")], a.sched.start[b.id("f")] + 3);
    EXPECT_EQ(a.sched.length,
              a.sched.start[b.id("st")] + 1);
    EXPECT_EQ(a.sched.stageCount,
              (a.sched.length + 0) / 1);
}

TEST(Scheduler, RespectsFuLimits)
{
    // 6 independent loads, 4 ports, II=2: at most 4 per phase.
    DdgBuilder b;
    for (int i = 0; i < 6; ++i)
        b.op("ld" + std::to_string(i), OpClass::Load);
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();
    const auto part = allInCluster(g, 1, 0);
    const auto a = scheduleAtIi(g, m, part, 2);
    ASSERT_TRUE(a.ok);
    EXPECT_TRUE(checkSchedule(g, m, part, a.sched).empty());
}

TEST(Scheduler, RecurrenceScheduledAtRecMii)
{
    DdgBuilder b;
    b.op("x", OpClass::FpAlu);
    b.op("y", OpClass::FpAlu, {"x"});
    b.flow("y", "x", 1); // RecMII = 6
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();
    const auto part = allInCluster(g, 1, 0);
    EXPECT_EQ(minimumIi(g, m), 6);
    const auto a = scheduleAtIi(g, m, part, 6);
    ASSERT_TRUE(a.ok);
    EXPECT_TRUE(checkSchedule(g, m, part, a.sched).empty());
}

TEST(Scheduler, RecurrenceFailsBelowRecMii)
{
    DdgBuilder b;
    b.op("x", OpClass::FpAlu);
    b.op("y", OpClass::FpAlu, {"x"});
    b.flow("y", "x", 1);
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();
    const auto part = allInCluster(g, 1, 0);
    const auto a = scheduleAtIi(g, m, part, 5);
    EXPECT_FALSE(a.ok);
    EXPECT_EQ(a.cause, FailCause::Recurrence);
}

TEST(Scheduler, CopyUsesBusAndArrivesLate)
{
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("w", OpClass::IntAlu, {"p"});
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("p"), 0);
    p.assign(b.id("w"), 1);
    insertCopies(g, p, m);

    const auto a = scheduleAtIi(g, m, p, 2);
    ASSERT_TRUE(a.ok);
    EXPECT_TRUE(checkSchedule(g, m, p, a.sched).empty());
    // Find the copy and verify the arrival timing.
    for (NodeId n : g.nodes()) {
        if (g.node(n).cls != OpClass::Copy)
            continue;
        EXPECT_GE(a.sched.start[n],
                  a.sched.start[b.id("p")] + 1); // after producer
        EXPECT_GE(a.sched.start[b.id("w")],
                  a.sched.start[n] + 2); // bus latency 2
        EXPECT_GE(a.sched.busOf[n], 0);
    }
}

TEST(Scheduler, TooManyCopiesFailsWithBusCause)
{
    // 3 values crossing on a 1-bus lat-2 machine at II=2: capacity 1.
    DdgBuilder b;
    b.op("p0", OpClass::IntAlu);
    b.op("p1", OpClass::IntAlu);
    b.op("p2", OpClass::IntAlu);
    b.op("w", OpClass::IntAlu, {"p0", "p1", "p2"});
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("p0"), 0);
    p.assign(b.id("p1"), 0);
    p.assign(b.id("p2"), 0);
    p.assign(b.id("w"), 1);
    insertCopies(g, p, m);

    const auto a = scheduleAtIi(g, m, p, 2);
    EXPECT_FALSE(a.ok);
    EXPECT_EQ(a.cause, FailCause::Bus);
}

TEST(Scheduler, RegisterPressureFailure)
{
    // Twelve long-latency values that must all be alive when the
    // (integer) sink reads them: pressure 12 > 4 registers at II=3,
    // no matter how the ops are compacted.
    DdgBuilder b;
    for (int i = 0; i < 12; ++i)
        b.op("v" + std::to_string(i), OpClass::FpDiv); // lat 18
    b.op("sink", OpClass::IntAlu,
         {"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9",
          "v10", "v11"});
    b.liveOut("sink");
    const Ddg g = b.take();
    const auto m = MachineConfig::custom(1, {4, 4, 4, 0}, 0, 1, 4);
    const auto part = allInCluster(g, 1, 0);
    const auto a = scheduleAtIi(g, m, part, 3);
    EXPECT_FALSE(a.ok);
    EXPECT_EQ(a.cause, FailCause::Registers);
}

TEST(Scheduler, ZeroBusLatencyShortensLength)
{
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("w", OpClass::IntAlu, {"p"});
    b.liveOut("w");
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c2b4l64r");
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("p"), 0);
    p.assign(b.id("w"), 1);
    insertCopies(g, p, m);

    const auto normal = scheduleAtIi(g, m, p, 4);
    SchedulerOptions zero;
    zero.zeroBusLatencyForLength = true;
    const auto bound = scheduleAtIi(g, m, p, 4, zero);
    ASSERT_TRUE(normal.ok);
    ASSERT_TRUE(bound.ok);
    EXPECT_LT(bound.sched.length, normal.sched.length);
    EXPECT_TRUE(checkSchedule(g, m, p, bound.sched, zero).empty());
}

TEST(Scheduler, LoopCarriedDependencesUseDistanceSlack)
{
    // x -> y with distance 1 allows y before x + latency within one
    // iteration because the value comes from the prior iteration.
    DdgBuilder b;
    b.op("x", OpClass::FpMul); // lat 6
    b.op("y", OpClass::FpAlu);
    b.flow("x", "y", 1);
    b.liveOut("y");
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();
    const auto part = allInCluster(g, 1, 0);
    const auto a = scheduleAtIi(g, m, part, 1);
    // RecMII is 1 (no cycle); II=1 must still satisfy
    // start[y] + 1*1 >= start[x] + 6, i.e. y >= x + 5.
    ASSERT_TRUE(a.ok);
    EXPECT_TRUE(checkSchedule(g, m, part, a.sched).empty());
    EXPECT_GE(a.sched.start[b.id("y")] + 1,
              a.sched.start[b.id("x")] + 6);
}

TEST(Scheduler, StartsNormalizedToZero)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu, {"a"});
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();
    const auto part = allInCluster(g, 1, 0);
    const auto a = scheduleAtIi(g, m, part, 1);
    ASSERT_TRUE(a.ok);
    int min_start = 1 << 30;
    for (NodeId n : g.nodes())
        min_start = std::min(min_start, a.sched.start[n]);
    EXPECT_EQ(min_start, 0);
}

} // namespace
} // namespace cvliw
