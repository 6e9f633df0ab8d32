/**
 * @file
 * Copy insertion tests: one broadcast copy per communicated value,
 * correct rewiring and distance preservation.
 */

#include <gtest/gtest.h>

#include "ddg/builder.hh"
#include "sched/comms.hh"
#include "sched/copies.hh"

namespace cvliw
{
namespace
{

TEST(Copies, NoneOnUnified)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu, {"a"});
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    Partition p(1, g.numNodeSlots());
    for (NodeId n : g.nodes())
        p.assign(n, 0);
    const auto ins = insertCopies(g, p, m);
    EXPECT_TRUE(ins.copies.empty());
    EXPECT_EQ(g.numNodeSlots(), 2);
}

TEST(Copies, SingleBroadcastForTwoRemoteConsumers)
{
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("w1", OpClass::IntAlu, {"p"});
    b.op("w2", OpClass::IntAlu, {"p"});
    b.op("local", OpClass::IntAlu, {"p"});
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("4c1b2l64r");
    Partition p(4, g.numNodeSlots());
    p.assign(b.id("p"), 0);
    p.assign(b.id("local"), 0);
    p.assign(b.id("w1"), 1);
    p.assign(b.id("w2"), 2);

    const auto ins = insertCopies(g, p, m);
    ASSERT_EQ(ins.copies.size(), 1u);
    const NodeId copy = ins.copies[0];
    EXPECT_EQ(g.flowPreds(copy).toVector(), std::vector<NodeId>{b.id("p")});
    // The copy lives in the producer's cluster.
    EXPECT_EQ(p.clusterOf(copy), 0);
    // Remote consumers read the copy, the local one does not.
    EXPECT_EQ(g.flowPreds(b.id("w1")).toVector(), std::vector<NodeId>{copy});
    EXPECT_EQ(g.flowPreds(b.id("w2")).toVector(), std::vector<NodeId>{copy});
    EXPECT_EQ(g.flowPreds(b.id("local")).toVector(),
              std::vector<NodeId>{b.id("p")});
    // After insertion no raw communications remain.
    EXPECT_EQ(findCommunications(g, p.vec()).count(), 0);
}

TEST(Copies, PreservesDistance)
{
    DdgBuilder b;
    b.op("p", OpClass::FpAlu);
    b.op("w", OpClass::FpAlu);
    b.flow("p", "w", 3);
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("p"), 0);
    p.assign(b.id("w"), 1);

    insertCopies(g, p, m);
    // The copy edge to the consumer carries the original distance.
    bool found = false;
    for (EdgeId eid : g.inEdges(b.id("w"))) {
        const DdgEdge &e = g.edge(eid);
        EXPECT_EQ(g.node(e.src).cls, OpClass::Copy);
        EXPECT_EQ(e.distance, 3);
        found = true;
    }
    EXPECT_TRUE(found);
    // Producer -> copy is distance 0.
    for (EdgeId eid : g.outEdges(b.id("p"))) {
        EXPECT_EQ(g.edge(eid).distance, 0);
        EXPECT_EQ(g.node(g.edge(eid).dst).cls, OpClass::Copy);
    }
}

TEST(Copies, OnePerValueManyValues)
{
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("q", OpClass::IntAlu);
    b.op("w", OpClass::IntAlu, {"p", "q"});
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("4c1b2l64r");
    Partition p(4, g.numNodeSlots());
    p.assign(b.id("p"), 0);
    p.assign(b.id("q"), 1);
    p.assign(b.id("w"), 2);
    const auto ins = insertCopies(g, p, m);
    EXPECT_EQ(ins.copies.size(), 2u);
    EXPECT_EQ(g.flowPreds(b.id("w")).size(), 2u);
    for (NodeId pred : g.flowPreds(b.id("w")))
        EXPECT_EQ(g.node(pred).cls, OpClass::Copy);
}

TEST(Copies, MemoryEdgesUntouched)
{
    DdgBuilder b;
    b.op("v", OpClass::IntAlu);
    b.op("st", OpClass::Store, {"v"});
    b.op("ld", OpClass::Load);
    b.mem("st", "ld", 1);
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("v"), 0);
    p.assign(b.id("st"), 0);
    p.assign(b.id("ld"), 1);
    const auto ins = insertCopies(g, p, m);
    EXPECT_TRUE(ins.copies.empty());
    EXPECT_EQ(g.numEdges(), 2);
}

} // namespace
} // namespace cvliw
