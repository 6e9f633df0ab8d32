/**
 * @file
 * DDG analysis tests: topological order and the LoopAnalysis record
 * (distance-0 cycle flag, ASAP/ALAP, SCCs, recurrences and RecMII).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ddg/analysis.hh"
#include "ddg/builder.hh"

namespace cvliw
{
namespace
{

Ddg
chainGraph()
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);           // lat 2
    b.op("f1", OpClass::FpAlu, {"ld"});  // lat 3
    b.op("f2", OpClass::FpMul, {"f1"});  // lat 6
    b.op("st", OpClass::Store, {"f2"});
    return b.take();
}

TEST(TopoOrder, RespectsEdges)
{
    const Ddg g = chainGraph();
    const auto order = topoOrder(g);
    ASSERT_EQ(order.size(), 4u);
    std::vector<int> pos(g.numNodeSlots());
    for (std::size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = static_cast<int>(i);
    for (EdgeId eid : g.edges()) {
        const DdgEdge &e = g.edge(eid);
        if (e.distance == 0)
            EXPECT_LT(pos[e.src], pos[e.dst]);
    }
}

TEST(TopoOrder, IgnoresLoopCarriedEdges)
{
    DdgBuilder b;
    b.op("acc", OpClass::FpAlu);
    b.flow("acc", "acc", 1); // recurrence, not a topo cycle
    const Ddg g = b.take();
    EXPECT_EQ(topoOrder(g).size(), 1u);
}

TEST(LoopAnalysis, OrderIsTheTopologicalOrder)
{
    const Ddg g = chainGraph();
    const auto a = analyzeLoop(g, MachineConfig::unified());
    EXPECT_FALSE(a.zeroDistanceCycle);
    EXPECT_EQ(a.order, topoOrder(g));
}

TEST(LoopAnalysis, FlagsZeroDistanceCycle)
{
    DdgBuilder b;
    b.op("in", OpClass::Load);
    b.op("x", OpClass::IntAlu, {"in"});
    b.op("y", OpClass::IntAlu, {"x"});
    b.flow("y", "x", 0); // x -> y -> x inside one iteration
    const auto a = analyzeLoop(b.take(), MachineConfig::unified());
    EXPECT_TRUE(a.zeroDistanceCycle);
    EXPECT_EQ(a.order.size(), 1u); // only "in" is ordered

    DdgBuilder self;
    self.op("acc", OpClass::FpAlu);
    self.flow("acc", "acc", 0);
    EXPECT_TRUE(
        analyzeLoop(self.take(), MachineConfig::unified())
            .zeroDistanceCycle);
}

TEST(LoopAnalysis, AsapAlongChain)
{
    const auto m = MachineConfig::unified();
    const auto t = analyzeLoop(chainGraph(), m).times;
    EXPECT_EQ(t.asap[0], 0);  // ld
    EXPECT_EQ(t.asap[1], 2);  // f1 after load (lat 2)
    EXPECT_EQ(t.asap[2], 5);  // f2 after f1 (lat 3)
    EXPECT_EQ(t.asap[3], 11); // st after mul (lat 6)
    EXPECT_EQ(t.length, 12);  // st start 11 + store latency 1
}

TEST(LoopAnalysis, AlapAndMobility)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);          // critical: a->c
    b.op("b", OpClass::IntAlu);          // slack path
    b.op("c", OpClass::FpDiv, {"a", "b"});
    const auto t = analyzeLoop(b.take(), m).times;
    // Critical path: a(1) -> c(18): length 19.
    EXPECT_EQ(t.length, 19);
    EXPECT_EQ(t.mobility(b.id("a")), 0);
    EXPECT_EQ(t.mobility(b.id("b")), 0); // both feed c with lat 1
    EXPECT_EQ(t.mobility(b.id("c")), 0);
}

TEST(LoopAnalysis, MobilityOfSlackNode)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("slow", OpClass::FpDiv);          // 18 cycles
    b.op("fast", OpClass::IntAlu);         // 1 cycle, lots of slack
    b.op("join", OpClass::FpAlu, {"slow", "fast"});
    const auto t = analyzeLoop(b.take(), m).times;
    EXPECT_EQ(t.mobility(b.id("slow")), 0);
    EXPECT_EQ(t.mobility(b.id("fast")), 17); // can start 0..17
}

TEST(LoopAnalysis, HeightAndDepth)
{
    const auto m = MachineConfig::unified();
    const auto t = analyzeLoop(chainGraph(), m).times;
    EXPECT_EQ(t.depth[0], 0);
    EXPECT_EQ(t.height[3], 0);
    EXPECT_EQ(t.height[0], 11); // ld -> f1 -> f2 -> st latencies
    EXPECT_EQ(t.depth[3], 11);
}

TEST(LoopAnalysis, SingleNodesAreOwnComponents)
{
    const Ddg g = chainGraph();
    const auto a = analyzeLoop(g, MachineConfig::unified());
    // Four distinct components, none of them a recurrence.
    std::vector<int> ids;
    for (NodeId n : g.nodes())
        ids.push_back(a.scc[n]);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    EXPECT_EQ(ids.size(), 4u);
    EXPECT_TRUE(a.recurrences.empty());
}

TEST(LoopAnalysis, GroupsRecurrenceComponent)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("x", OpClass::FpAlu, {"a"});
    b.op("y", OpClass::FpAlu, {"x"});
    b.flow("y", "x", 1); // x <-> y recurrence
    const auto a = analyzeLoop(b.take(), MachineConfig::unified());
    EXPECT_EQ(a.scc[b.id("x")], a.scc[b.id("y")]);
    EXPECT_NE(a.scc[b.id("a")], a.scc[b.id("x")]);
    ASSERT_EQ(a.recurrences.size(), 1u);
    EXPECT_EQ(a.recurrences[0].members,
              (std::vector<NodeId>{b.id("x"), b.id("y")}));
}

TEST(LoopAnalysis, SelfLoopAndCycleAreRecurrencesFreeNodeIsNot)
{
    DdgBuilder b;
    b.op("acc", OpClass::FpAlu);
    b.flow("acc", "acc", 1);
    b.op("free", OpClass::IntAlu);
    b.op("x", OpClass::FpMul);        // 6
    b.op("y", OpClass::FpAlu, {"x"}); // 3
    b.flow("y", "x", 1);              // cycle lat 9, dist 1
    const auto a = analyzeLoop(b.take(), MachineConfig::unified());
    // Ordered by first member; each with its own RecMII.
    ASSERT_EQ(a.recurrences.size(), 2u);
    EXPECT_EQ(a.recurrences[0].members,
              std::vector<NodeId>{b.id("acc")});
    EXPECT_EQ(a.recurrences[0].recMii, 3);
    EXPECT_EQ(a.recurrences[1].members,
              (std::vector<NodeId>{b.id("x"), b.id("y")}));
    EXPECT_EQ(a.recurrences[1].recMii, 9);
    EXPECT_EQ(a.recMii, 9);
}

TEST(RecMii, AcyclicGraphIsOne)
{
    const auto m = MachineConfig::unified();
    EXPECT_EQ(analyzeLoop(chainGraph(), m).recMii, 1);
}

TEST(RecMii, SelfLoopFpAdd)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("acc", OpClass::FpAlu); // lat 3
    b.flow("acc", "acc", 1);
    // Cycle: latency 3, distance 1 => it does not fit II 2 and fits
    // II 3, so RecMII is 3.
    EXPECT_EQ(analyzeLoop(b.take(), m).recMii, 3);
}

TEST(RecMii, TwoNodeCycleWithDistanceTwo)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("x", OpClass::FpMul); // lat 6
    b.op("y", OpClass::FpAlu, {"x"}); // lat 3
    b.flow("y", "x", 2);
    // Cycle latency 9, distance 2 => ceil(9/2) = 5.
    EXPECT_EQ(analyzeLoop(b.take(), m).recMii, 5);
}

TEST(RecMii, TakesWorstCycle)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.flow("a", "a", 1); // ratio 1
    b.op("d", OpClass::FpDiv);
    b.flow("d", "d", 1); // ratio 18
    const auto a = analyzeLoop(b.take(), m);
    ASSERT_EQ(a.recurrences.size(), 2u);
    EXPECT_EQ(a.recurrences[0].recMii, 1);
    EXPECT_EQ(a.recurrences[1].recMii, 18);
    EXPECT_EQ(a.recMii, 18);
}

TEST(RecMii, LongerLoopCarriedChain)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("x", OpClass::FpAlu);
    b.op("y", OpClass::FpAlu, {"x"});
    b.op("z", OpClass::FpAlu, {"y"});
    b.flow("z", "x", 1);
    // 3 fp adds (3 cycles each) over distance 1 => RecMII 9.
    EXPECT_EQ(analyzeLoop(b.take(), m).recMii, 9);
}

} // namespace
} // namespace cvliw
