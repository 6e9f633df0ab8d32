/**
 * @file
 * Checker tests: each class of violation must be detected, and valid
 * schedules must pass.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/pipeline.hh"
#include "ddg/builder.hh"
#include "sched/copies.hh"
#include "sched/scheduler.hh"
#include "vliw/checker.hh"
#include "vliw/simulator.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

struct Fixture
{
    DdgBuilder b;
    Ddg g;
    MachineConfig m = MachineConfig::fromString("2c1b2l64r");
    Partition p{2, 0};

    Fixture()
    {
        b.op("src", OpClass::IntAlu);
        b.op("dst", OpClass::IntAlu, {"src"});
        b.liveOut("dst");
        g = b.graph();
        p = Partition(2, g.numNodeSlots());
        p.assign(b.id("src"), 0);
        p.assign(b.id("dst"), 0);
    }

    Schedule
    schedule(std::initializer_list<std::pair<const char *, int>> at,
             int ii)
    {
        Schedule s;
        s.ii = ii;
        s.start.assign(g.numNodeSlots(), -1);
        s.busOf.assign(g.numNodeSlots(), -1);
        for (const auto &[name, t] : at)
            s.start[b.id(name)] = t;
        s.length = 1;
        s.stageCount = 1;
        return s;
    }
};

TEST(Checker, AcceptsValidSchedule)
{
    Fixture f;
    const auto s = f.schedule({{"src", 0}, {"dst", 1}}, 2);
    EXPECT_TRUE(checkSchedule(f.g, f.m, f.p, s).empty());
}

TEST(Checker, DetectsDependenceViolation)
{
    Fixture f;
    // dst reads at 0, producer finishes at 1.
    const auto s = f.schedule({{"src", 0}, {"dst", 0}}, 2);
    const auto errs = checkSchedule(f.g, f.m, f.p, s);
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("dependence"), std::string::npos);
    // Both ends, named n<id>.
    const std::string edge = "n" + std::to_string(f.b.id("src")) +
                             " -> n" + std::to_string(f.b.id("dst"));
    EXPECT_NE(errs[0].find(edge), std::string::npos) << errs[0];
}

TEST(Checker, HugeDistanceDoesNotOverflow)
{
    // II * distance = 2^32 does not fit in an int: wrapped to 0, the
    // consumer would seem to read before the producer's latency.
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    const NodeId b = g.addNode(OpClass::IntAlu);
    g.addEdge(a, b, EdgeKind::Memory, 1 << 30, 1);
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition p(2, g.numNodeSlots());
    p.assign(a, 0);
    p.assign(b, 0);
    Schedule s;
    s.ii = 4;
    s.start.assign(g.numNodeSlots(), 0);
    s.busOf.assign(g.numNodeSlots(), -1);
    s.length = 1;
    s.stageCount = 1;
    EXPECT_EQ(checkSchedule(g, m, p, s), std::vector<std::string>{});
}

TEST(Checker, DetectsUnscheduledNode)
{
    Fixture f;
    const auto s = f.schedule({{"src", 0}}, 2);
    const auto errs = checkSchedule(f.g, f.m, f.p, s);
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("unscheduled"), std::string::npos);
}

TEST(Checker, DetectsFuOverbooking)
{
    // Three independent int ops in one phase of a 2-int-FU cluster.
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu);
    b.op("d", OpClass::IntAlu);
    for (const char *n : {"a", "c", "d"})
        b.liveOut(n);
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition p(2, g.numNodeSlots());
    for (NodeId n : g.nodes())
        p.assign(n, 0);
    Schedule s;
    s.ii = 2;
    s.start.assign(g.numNodeSlots(), 0); // all in phase 0
    s.busOf.assign(g.numNodeSlots(), -1);
    s.length = 1;
    s.stageCount = 1;
    const auto errs = checkSchedule(g, m, p, s);
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("overbooked"), std::string::npos);
}

TEST(Checker, DetectsCrossClusterReadWithoutCopy)
{
    Fixture f;
    f.p.assign(f.b.id("dst"), 1); // remote read, no copy inserted
    const auto s = f.schedule({{"src", 0}, {"dst", 5}}, 2);
    const auto errs = checkSchedule(f.g, f.m, f.p, s);
    ASSERT_FALSE(errs.empty());
    bool found = false;
    for (const auto &e : errs)
        found |= e.find("without a copy") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Checker, DetectsBusDoubleBooking)
{
    Ddg g;
    const NodeId p0 = g.addNode(OpClass::IntAlu);
    const NodeId c0 = g.addNode(OpClass::Copy);
    const NodeId p1 = g.addNode(OpClass::IntAlu);
    const NodeId c1 = g.addNode(OpClass::Copy);
    const NodeId w = g.addNode(OpClass::IntAlu);
    g.node(w).liveOut = true;
    g.addEdge(p0, c0, EdgeKind::RegFlow, 0);
    g.addEdge(p1, c1, EdgeKind::RegFlow, 0);
    g.addEdge(c0, w, EdgeKind::RegFlow, 0);
    g.addEdge(c1, w, EdgeKind::RegFlow, 0);
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition part(2, g.numNodeSlots());
    part.assign(p0, 0);
    part.assign(c0, 0);
    part.assign(p1, 0);
    part.assign(c1, 0);
    part.assign(w, 1);

    Schedule s;
    s.ii = 4;
    s.start.assign(g.numNodeSlots(), -1);
    s.busOf.assign(g.numNodeSlots(), -1);
    s.start[p0] = 0;
    s.start[p1] = 0;
    s.start[c0] = 1;
    s.start[c1] = 2; // overlaps c0's [1,3) occupancy on the same bus
    s.busOf[c0] = 0;
    s.busOf[c1] = 0;
    s.start[w] = 8;
    s.length = 9;
    s.stageCount = 3;
    const auto errs = checkSchedule(g, m, part, s);
    ASSERT_FALSE(errs.empty());
    bool found = false;
    for (const auto &e : errs)
        found |= e.find("double-booked") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Checker, DetectsMissingBusAssignment)
{
    Ddg g;
    const NodeId p0 = g.addNode(OpClass::IntAlu);
    const NodeId c0 = g.addNode(OpClass::Copy);
    const NodeId w = g.addNode(OpClass::IntAlu);
    g.node(w).liveOut = true;
    g.addEdge(p0, c0, EdgeKind::RegFlow, 0);
    g.addEdge(c0, w, EdgeKind::RegFlow, 0);
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition part(2, g.numNodeSlots());
    part.assign(p0, 0);
    part.assign(c0, 0);
    part.assign(w, 1);
    Schedule s;
    s.ii = 2;
    s.start.assign(g.numNodeSlots(), -1);
    s.busOf.assign(g.numNodeSlots(), -1);
    s.start[p0] = 0;
    s.start[c0] = 1;
    s.start[w] = 3;
    s.length = 4;
    s.stageCount = 2;
    const auto errs = checkSchedule(g, m, part, s);
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("bus assignment"), std::string::npos);
}

TEST(Checker, DetectsRegisterOverflow)
{
    // Tiny register file, long lifetime at II=1.
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("z", OpClass::IntAlu, {"a"});
    b.liveOut("z");
    Ddg g = b.take();
    const auto m = MachineConfig::custom(1, {4, 4, 4, 0}, 0, 1, 2);
    Partition p(1, g.numNodeSlots());
    p.assign(b.id("a"), 0);
    p.assign(b.id("z"), 0);
    Schedule s;
    s.ii = 1;
    s.start.assign(g.numNodeSlots(), -1);
    s.busOf.assign(g.numNodeSlots(), -1);
    s.start[b.id("a")] = 0;
    s.start[b.id("z")] = 6; // value lives 5 cycles at II=1 -> 5 regs
    s.length = 7;
    s.stageCount = 7;
    const auto errs = checkSchedule(g, m, p, s);
    ASSERT_FALSE(errs.empty());
    bool found = false;
    for (const auto &e : errs)
        found |= e.find("MaxLive") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Checker, NodeOnNoClusterIsAnError)
{
    // The partition covers src alone: dst has no cluster.
    Fixture f;
    f.p = Partition(2, 1);
    f.p.assign(f.b.id("src"), 0);
    const auto s = f.schedule({{"src", 0}, {"dst", 1}}, 2);
    const auto errs = checkSchedule(f.g, f.m, f.p, s);
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_EQ(errs[0], "n" + std::to_string(f.b.id("dst")) +
                           " is assigned to no cluster");
}

TEST(Checker, ClusterOutsideTheMachineIsAnError)
{
    // A 4-cluster partition checked against the 2-cluster machine.
    Fixture f;
    f.p = Partition(4, f.g.numNodeSlots());
    f.p.assign(f.b.id("src"), 3);
    f.p.assign(f.b.id("dst"), 3);
    const auto s = f.schedule({{"src", 0}, {"dst", 1}}, 2);
    const auto errs = checkSchedule(f.g, f.m, f.p, s);
    ASSERT_EQ(errs.size(), 2u);
    EXPECT_NE(errs[0].find("in cluster 3 of a 2-cluster machine"),
              std::string::npos);
}

TEST(Checker, CopyWithoutBusEntryIsAnError)
{
    Ddg g;
    const NodeId p0 = g.addNode(OpClass::IntAlu);
    const NodeId c0 = g.addNode(OpClass::Copy);
    const NodeId w = g.addNode(OpClass::IntAlu);
    g.node(w).liveOut = true;
    g.addEdge(p0, c0, EdgeKind::RegFlow, 0);
    g.addEdge(c0, w, EdgeKind::RegFlow, 0);
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition part(2, g.numNodeSlots());
    part.assign(p0, 0);
    part.assign(c0, 0);
    part.assign(w, 1);
    Schedule s;
    s.ii = 2;
    s.start = {0, 1, 3};
    s.length = 4;
    s.stageCount = 2;
    const auto errs = checkSchedule(g, m, part, s);
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_EQ(errs[0], "copy n" + std::to_string(c0) + " has no bus entry");
}

TEST(Checker, ResultCheckedAgainstAShortPartitionIsAnError)
{
    // A real result against a partition of one node: checkSchedule
    // and simulate (which runs it first) report, neither aborts.
    const Loop loop = buildBenchmark("swim").front();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const auto r = compile(loop.ddg, m);
    ASSERT_TRUE(r.ok);
    const Partition short_part(2, 1);
    const auto errs =
        checkSchedule(r.finalDdg, m, short_part, r.schedule);
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("assigned to no cluster"), std::string::npos);
    const auto rep =
        simulate(r.finalDdg, m, short_part, r.schedule, loop.ddg);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.errors, errs);
}

TEST(Checker, RealSchedulesFromTheSchedulerPass)
{
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("q", OpClass::FpAlu, {"p"});
    b.op("w", OpClass::FpAlu, {"q"});
    b.liveOut("w");
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("p"), 0);
    p.assign(b.id("q"), 0);
    p.assign(b.id("w"), 1);
    insertCopies(g, p, m);
    const auto a = scheduleAtIi(g, m, p, 2);
    ASSERT_TRUE(a.ok);
    EXPECT_TRUE(checkSchedule(g, m, p, a.sched).empty());
}

} // namespace
} // namespace cvliw
