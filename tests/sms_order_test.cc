/**
 * @file
 * SMS ordering tests: completeness, recurrence priority and the
 * neighbour-adjacency property that keeps placement windows
 * one-sided.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ddg/builder.hh"
#include "sched/sms_order.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

TEST(SmsOrder, ContainsEveryNodeOnce)
{
    DdgBuilder b;
    b.op("a", OpClass::Load);
    b.op("x", OpClass::FpAlu, {"a"});
    b.op("y", OpClass::FpAlu, {"x"});
    b.flow("y", "x", 1);
    b.op("st", OpClass::Store, {"y"});
    const Ddg g = b.take();
    const auto order = smsOrder(g, analyzeLoop(g, MachineConfig::unified()));
    ASSERT_EQ(order.size(), 4u);
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, g.nodes().toVector());
}

TEST(SmsOrder, TightestRecurrenceFirst)
{
    DdgBuilder b;
    b.op("fast", OpClass::IntAlu); // self-loop RecMII 1
    b.flow("fast", "fast", 1);
    b.op("slow", OpClass::FpDiv);  // self-loop RecMII 18
    b.flow("slow", "slow", 1);
    b.op("free", OpClass::IntAlu);
    const Ddg g = b.take();
    const auto order = smsOrder(g, analyzeLoop(g, MachineConfig::unified()));
    // The most constraining recurrence must be ordered first.
    EXPECT_EQ(order.front(), b.id("slow"));
    // The free node comes after all recurrence nodes.
    EXPECT_EQ(order.back(), b.id("free"));
}

TEST(SmsOrder, AdjacencyInConnectedComponent)
{
    // Within a connected component, every node after the first must
    // have a neighbour among the already ordered nodes, so its
    // placement window is bounded on at least one side.
    const auto loops = buildBenchmark("su2cor");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    int checked = 0;
    for (std::size_t li = 0; li < 4 && li < loops.size(); ++li) {
        const Ddg &g = loops[li].ddg;
        const auto order = smsOrder(g, analyzeLoop(g, m));
        std::vector<bool> placed(g.numNodeSlots(), false);
        std::vector<bool> first_of_component(g.numNodeSlots(), false);

        for (NodeId n : order) {
            bool has_neighbor = false;
            for (EdgeId eid : g.inEdges(n))
                has_neighbor |= placed[g.edge(eid).src];
            for (EdgeId eid : g.outEdges(n))
                has_neighbor |= placed[g.edge(eid).dst];
            if (!has_neighbor) {
                // Allowed only as the seed of a new region; count
                // them and verify they are few.
                first_of_component[n] = true;
            }
            placed[n] = true;
            ++checked;
        }
        int seeds = 0;
        for (NodeId n : g.nodes())
            seeds += first_of_component[n];
        // Seeds are rare relative to the graph size (one per
        // weakly-connected region plus recurrence set starts).
        EXPECT_LT(seeds, g.numNodes() / 2);
    }
    EXPECT_GT(checked, 0);
}

TEST(SmsOrder, CopiesAreOrderedToo)
{
    Ddg g;
    const NodeId p = g.addNode(OpClass::IntAlu, "p");
    const NodeId c = g.addNode(OpClass::Copy, "p.copy");
    const NodeId w = g.addNode(OpClass::IntAlu, "w");
    g.addEdge(p, c, EdgeKind::RegFlow, 0);
    g.addEdge(c, w, EdgeKind::RegFlow, 0);
    const auto order =
        smsOrder(g, analyzeLoop(g, MachineConfig::fromString("2c1b2l64r")));
    EXPECT_EQ(order.size(), 3u);
}

} // namespace
} // namespace cvliw
