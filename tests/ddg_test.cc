/**
 * @file
 * DDG container tests: construction, edges, tombstoned removal,
 * replicas and edge latencies.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "ddg/builder.hh"
#include "ddg/ddg.hh"
#include "expect_invalid.hh"

namespace cvliw
{
namespace
{

TEST(Ddg, AddNodesAndEdges)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::Load);
    const NodeId b = g.addNode(OpClass::FpAlu);
    g.addEdge(a, b, EdgeKind::RegFlow, 0);

    EXPECT_EQ(g.numNodes(), 2);
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_EQ(g.flowSuccs(a).toVector(), std::vector<NodeId>{b});
    EXPECT_EQ(g.flowPreds(b).toVector(), std::vector<NodeId>{a});
}

TEST(Ddg, SemanticIdDefaultsToSelf)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::Load);
    EXPECT_EQ(g.node(a).semanticId, a);
    EXPECT_FALSE(g.node(a).isReplica);
}

TEST(Ddg, ReplicaSharesSemantics)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::FpMul);
    const NodeId r = g.addReplica(a);
    EXPECT_EQ(g.node(r).semanticId, a);
    EXPECT_EQ(g.node(r).cls, OpClass::FpMul);
    EXPECT_TRUE(g.node(r).isReplica);

    // Replica of a replica still maps to the original.
    const NodeId r2 = g.addReplica(r);
    EXPECT_EQ(g.node(r2).semanticId, a);
}

TEST(Ddg, RemoveNodeRemovesIncidentEdges)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    const NodeId b = g.addNode(OpClass::IntAlu);
    const NodeId c = g.addNode(OpClass::IntAlu);
    g.addEdge(a, b, EdgeKind::RegFlow, 0);
    g.addEdge(b, c, EdgeKind::RegFlow, 0);

    g.removeNode(b);
    EXPECT_EQ(g.numNodes(), 2);
    EXPECT_EQ(g.numEdges(), 0);
    EXPECT_TRUE(g.flowSuccs(a).empty());
    EXPECT_TRUE(g.flowPreds(c).empty());
    // Ids of surviving nodes stay stable.
    EXPECT_EQ(g.nodes().toVector(), (std::vector<NodeId>{a, c}));
}

TEST(Ddg, RemoveEdgeOnly)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    const NodeId b = g.addNode(OpClass::IntAlu);
    const EdgeId e = g.addEdge(a, b, EdgeKind::RegFlow, 0);
    g.removeEdge(e);
    EXPECT_EQ(g.numNodes(), 2);
    EXPECT_EQ(g.numEdges(), 0);
}

TEST(Ddg, NodesListSkipsTombstones)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    const NodeId b = g.addNode(OpClass::IntAlu);
    g.removeNode(a);
    const auto live = g.nodes().toVector();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0], b);
    EXPECT_EQ(g.numNodeSlots(), 2);
}

/** Slot counts and stamp: a rejected mutation must not move them. */
std::tuple<int, int, int, int, std::uint64_t>
stateOf(const Ddg &g)
{
    return {g.numNodeSlots(), g.numEdgeSlots(), g.numNodes(),
            g.numEdges(), g.generation()};
}

TEST(Ddg, FlowEdgesFromStoresRejected)
{
    Ddg g;
    const NodeId st = g.addNode(OpClass::Store);
    const NodeId b = g.addNode(OpClass::Load);
    const auto before = stateOf(g);
    EXPECT_INVALID_ARGUMENT(g.addEdge(st, b, EdgeKind::RegFlow, 0),
                            "non-value-producing");
    EXPECT_EQ(stateOf(g), before);
    EXPECT_TRUE(g.outEdges(st).empty());
    EXPECT_TRUE(g.inEdges(b).empty());
}

TEST(Ddg, MemoryLatencyMustFitInt16)
{
    Ddg g;
    const NodeId st = g.addNode(OpClass::Store);
    const NodeId ld = g.addNode(OpClass::Load);
    g.addEdge(st, ld, EdgeKind::Memory, 1, 32767);
    const auto before = stateOf(g);
    EXPECT_INVALID_ARGUMENT(g.addEdge(st, ld, EdgeKind::Memory, 1, 32768),
                            "memory latency 32768 outside int16_t");
    EXPECT_INVALID_ARGUMENT(
        g.addEdge(st, ld, EdgeKind::Memory, 1, -32769),
        "memory latency -32769 outside int16_t");
    EXPECT_EQ(stateOf(g), before);
}

TEST(Ddg, NegativeDistanceRejected)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    const NodeId b = g.addNode(OpClass::IntAlu);
    const auto before = stateOf(g);
    EXPECT_INVALID_ARGUMENT(g.addEdge(a, b, EdgeKind::RegFlow, -1),
                            "negative edge distance -1");
    EXPECT_EQ(stateOf(g), before);
    EXPECT_TRUE(g.outEdges(a).empty());
}

TEST(Ddg, EdgeKindOutsideTheKindsRejected)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    const NodeId b = g.addNode(OpClass::IntAlu);
    const auto before = stateOf(g);
    EXPECT_INVALID_ARGUMENT(
        g.addEdge(a, b, static_cast<EdgeKind>(9), 0),
        "edge kind 9 outside the edge kinds");
    EXPECT_EQ(stateOf(g), before);
}

TEST(Ddg, EdgeEndpointsMustBeLiveNodes)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    const NodeId b = g.addNode(OpClass::IntAlu);
    g.removeNode(b);
    const auto before = stateOf(g);
    EXPECT_INVALID_ARGUMENT(g.addEdge(a, 2, EdgeKind::RegFlow, 0),
                            "endpoint 2 outside the node array");
    EXPECT_INVALID_ARGUMENT(g.addEdge(-1, a, EdgeKind::RegFlow, 0),
                            "endpoint -1 outside the node array");
    EXPECT_INVALID_ARGUMENT(g.addEdge(a, b, EdgeKind::RegFlow, 0),
                            "edge on dead node n1");
    EXPECT_EQ(stateOf(g), before);
}

TEST(Ddg, OpClassOutsideTheClassesRejected)
{
    // Passes index per-class tables by the op class, so a class past
    // the last one must never enter a graph.
    Ddg g;
    g.addNode(OpClass::Copy);
    const auto before = stateOf(g);
    EXPECT_INVALID_ARGUMENT(g.addNode(OpClass::NumOpClasses),
                            "op class 9 outside the op classes");
    EXPECT_INVALID_ARGUMENT(g.addNode(static_cast<OpClass>(200)),
                            "op class 200 outside the op classes");
    EXPECT_EQ(stateOf(g), before);
}

TEST(Ddg, MemoryEdgesFromStoresAllowed)
{
    Ddg g;
    const NodeId st = g.addNode(OpClass::Store);
    const NodeId ld = g.addNode(OpClass::Load);
    g.addEdge(st, ld, EdgeKind::Memory, 1, 1);
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_TRUE(g.flowPreds(ld).empty()); // memory edge is not flow
}

TEST(Ddg, EdgeLatencyIsProducerLatency)
{
    const auto m = MachineConfig::unified();
    Ddg g;
    const NodeId mul = g.addNode(OpClass::FpMul);
    const NodeId add = g.addNode(OpClass::FpAlu);
    const EdgeId e = g.addEdge(mul, add, EdgeKind::RegFlow, 0);
    EXPECT_EQ(g.edgeLatency(e, m), 6); // FpMul latency
}

TEST(Ddg, CopyEdgeLatencyIsBusLatency)
{
    const auto m = MachineConfig::fromString("4c2b4l64r");
    Ddg g;
    const NodeId p = g.addNode(OpClass::IntAlu);
    const NodeId c = g.addNode(OpClass::Copy);
    const NodeId w = g.addNode(OpClass::IntAlu);
    g.addEdge(p, c, EdgeKind::RegFlow, 0);
    const EdgeId e = g.addEdge(c, w, EdgeKind::RegFlow, 0);
    EXPECT_EQ(g.edgeLatency(e, m), 4); // bus latency
}

TEST(Ddg, MemoryEdgeLatencyIsExplicit)
{
    const auto m = MachineConfig::unified();
    Ddg g;
    const NodeId st = g.addNode(OpClass::Store);
    const NodeId ld = g.addNode(OpClass::Load);
    const EdgeId e = g.addEdge(st, ld, EdgeKind::Memory, 1, 3);
    EXPECT_EQ(g.edgeLatency(e, m), 3);
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
    EXPECT_INVALID_ARGUMENT(b.op("x", OpClass::Load),
                            "duplicate node name 'x'");
    EXPECT_INVALID_ARGUMENT(b.id("nope"), "unknown node name 'nope'");
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
