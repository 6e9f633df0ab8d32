/**
 * @file
 * DDG container tests: construction, edges, tombstoned removal,
 * replicas and edge latencies.
 */

#include <gtest/gtest.h>

#include "ddg/builder.hh"
#include "ddg/ddg.hh"

namespace cvliw
{
namespace
{

TEST(Ddg, AddNodesAndEdges)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::Load, "a");
    const NodeId b = g.addNode(OpClass::FpAlu, "b");
    g.addEdge(a, b, EdgeKind::RegFlow, 0);

    EXPECT_EQ(g.numNodes(), 2);
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_EQ(g.flowSuccs(a).toVector(), std::vector<NodeId>{b});
    EXPECT_EQ(g.flowPreds(b).toVector(), std::vector<NodeId>{a});
}

TEST(Ddg, DefaultLabels)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::Load);
    EXPECT_EQ(g.label(a), "n0");
}

TEST(Ddg, SemanticIdDefaultsToSelf)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::Load, "a");
    EXPECT_EQ(g.node(a).semanticId, a);
    EXPECT_FALSE(g.node(a).isReplica);
}

TEST(Ddg, ReplicaSharesSemantics)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::FpMul, "a");
    const NodeId r = g.addReplica(a, ".r2");
    EXPECT_EQ(g.node(r).semanticId, a);
    EXPECT_EQ(g.node(r).cls, OpClass::FpMul);
    EXPECT_TRUE(g.node(r).isReplica);
    EXPECT_EQ(g.label(r), "a.r2");

    // Replica of a replica still maps to the original.
    const NodeId r2 = g.addReplica(r, ".r3");
    EXPECT_EQ(g.node(r2).semanticId, a);
}

TEST(Ddg, RemoveNodeRemovesIncidentEdges)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu, "a");
    const NodeId b = g.addNode(OpClass::IntAlu, "b");
    const NodeId c = g.addNode(OpClass::IntAlu, "c");
    g.addEdge(a, b, EdgeKind::RegFlow, 0);
    g.addEdge(b, c, EdgeKind::RegFlow, 0);

    g.removeNode(b);
    EXPECT_EQ(g.numNodes(), 2);
    EXPECT_EQ(g.numEdges(), 0);
    EXPECT_TRUE(g.flowSuccs(a).empty());
    EXPECT_TRUE(g.flowPreds(c).empty());
    // Ids of surviving nodes stay stable.
    EXPECT_EQ(g.label(a), "a");
    EXPECT_EQ(g.label(c), "c");
}

TEST(Ddg, RemoveEdgeOnly)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu, "a");
    const NodeId b = g.addNode(OpClass::IntAlu, "b");
    const EdgeId e = g.addEdge(a, b, EdgeKind::RegFlow, 0);
    g.removeEdge(e);
    EXPECT_EQ(g.numNodes(), 2);
    EXPECT_EQ(g.numEdges(), 0);
}

TEST(Ddg, NodesListSkipsTombstones)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu, "a");
    const NodeId b = g.addNode(OpClass::IntAlu, "b");
    g.removeNode(a);
    const auto live = g.nodes().toVector();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0], b);
    EXPECT_EQ(g.numNodeSlots(), 2);
}

TEST(Ddg, FlowEdgesFromStoresRejected)
{
    Ddg g;
    const NodeId st = g.addNode(OpClass::Store, "st");
    const NodeId b = g.addNode(OpClass::Load, "b");
    EXPECT_DEATH(g.addEdge(st, b, EdgeKind::RegFlow, 0),
                 "non-value-producing");
}

TEST(Ddg, MemoryLatencyMustFitInt16)
{
    Ddg g;
    const NodeId st = g.addNode(OpClass::Store, "st");
    const NodeId ld = g.addNode(OpClass::Load, "ld");
    g.addEdge(st, ld, EdgeKind::Memory, 1, 32767);
    EXPECT_DEATH(g.addEdge(st, ld, EdgeKind::Memory, 1, 32768),
                 "memory latency 32768 outside int16_t");
}

TEST(Ddg, MemoryEdgesFromStoresAllowed)
{
    Ddg g;
    const NodeId st = g.addNode(OpClass::Store, "st");
    const NodeId ld = g.addNode(OpClass::Load, "ld");
    g.addEdge(st, ld, EdgeKind::Memory, 1, 1);
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_TRUE(g.flowPreds(ld).empty()); // memory edge is not flow
}

TEST(Ddg, EdgeLatencyIsProducerLatency)
{
    const auto m = MachineConfig::unified();
    Ddg g;
    const NodeId mul = g.addNode(OpClass::FpMul, "m");
    const NodeId add = g.addNode(OpClass::FpAlu, "a");
    const EdgeId e = g.addEdge(mul, add, EdgeKind::RegFlow, 0);
    EXPECT_EQ(g.edgeLatency(e, m), 6); // FpMul latency
}

TEST(Ddg, CopyEdgeLatencyIsBusLatency)
{
    const auto m = MachineConfig::fromString("4c2b4l64r");
    Ddg g;
    const NodeId p = g.addNode(OpClass::IntAlu, "p");
    const NodeId c = g.addNode(OpClass::Copy, "p.copy");
    const NodeId w = g.addNode(OpClass::IntAlu, "w");
    g.addEdge(p, c, EdgeKind::RegFlow, 0);
    const EdgeId e = g.addEdge(c, w, EdgeKind::RegFlow, 0);
    EXPECT_EQ(g.edgeLatency(e, m), 4); // bus latency
}

TEST(Ddg, MemoryEdgeLatencyIsExplicit)
{
    const auto m = MachineConfig::unified();
    Ddg g;
    const NodeId st = g.addNode(OpClass::Store, "st");
    const NodeId ld = g.addNode(OpClass::Load, "ld");
    const EdgeId e = g.addEdge(st, ld, EdgeKind::Memory, 1, 3);
    EXPECT_EQ(g.edgeLatency(e, m), 3);
}

TEST(Ddg, HasCopies)
{
    Ddg g;
    g.addNode(OpClass::IntAlu, "a");
    EXPECT_FALSE(g.hasCopies());
    const NodeId c = g.addNode(OpClass::Copy, "c");
    EXPECT_TRUE(g.hasCopies());
    g.removeNode(c);
    EXPECT_FALSE(g.hasCopies());
}

TEST(DdgBuilder, BuildsNamedGraph)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("f", OpClass::FpAlu, {"ld"});
    b.op("st", OpClass::Store, {"f"});
    b.flow("f", "f", 1);
    b.liveOut("f");

    const Ddg &g = b.graph();
    EXPECT_EQ(g.numNodes(), 3);
    EXPECT_EQ(g.numEdges(), 3);
    EXPECT_TRUE(g.node(b.id("f")).liveOut);
    EXPECT_FALSE(g.node(b.id("ld")).liveOut);
}

TEST(DdgBuilder, RejectsDuplicatesAndUnknowns)
{
    DdgBuilder b;
    b.op("x", OpClass::Load);
    EXPECT_EXIT(b.op("x", OpClass::Load),
                ::testing::ExitedWithCode(1), "duplicate");
    EXPECT_EXIT(b.id("nope"), ::testing::ExitedWithCode(1), "unknown");
}

TEST(Ddg, InOutEdgeQueries)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("b", OpClass::IntAlu, {"a"});
    b.op("c", OpClass::IntAlu, {"a", "b"});
    const Ddg &g = b.graph();
    EXPECT_EQ(g.outEdges(b.id("a")).size(), 2u);
    EXPECT_EQ(g.inEdges(b.id("c")).size(), 2u);
    EXPECT_EQ(g.inEdges(b.id("a")).size(), 0u);
}

} // namespace
} // namespace cvliw
