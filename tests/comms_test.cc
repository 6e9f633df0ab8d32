/**
 * @file
 * Communication accounting tests: per-value counting, broadcast
 * semantics, bus capacity and the section-3 formulas.
 */

#include <gtest/gtest.h>

#include "ddg/builder.hh"
#include "sched/comms.hh"

namespace cvliw
{
namespace
{

TEST(Comms, NoCommsWhenColocated)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu, {"a"});
    const Ddg g = b.take();
    const std::vector<ClusterId> part{0, 0};
    EXPECT_EQ(findCommunications(g, part).count(), 0);
}

TEST(Comms, OneCommPerValueNotPerEdge)
{
    // One producer consumed by two remote clusters: a single
    // broadcast communication (section 2.1).
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("w1", OpClass::IntAlu, {"p"});
    b.op("w2", OpClass::IntAlu, {"p"});
    const Ddg g = b.take();
    const std::vector<ClusterId> part{0, 1, 2};
    const auto info = findCommunications(g, part);
    EXPECT_EQ(info.count(), 1);
    EXPECT_EQ(info.producers[0], b.id("p"));
    EXPECT_TRUE(info.communicated[b.id("p")]);
    EXPECT_FALSE(info.communicated[b.id("w1")]);
}

TEST(Comms, MultipleProducers)
{
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("q", OpClass::FpAlu);
    b.op("w", OpClass::FpAlu, {"p", "q"});
    const Ddg g = b.take();
    const std::vector<ClusterId> part{0, 1, 2};
    EXPECT_EQ(findCommunications(g, part).count(), 2);
}

TEST(Comms, MemoryEdgesNeverCommunicate)
{
    // Stores and loads talk through the centralized cache.
    DdgBuilder b;
    b.op("v", OpClass::IntAlu);
    b.op("st", OpClass::Store, {"v"});
    b.op("ld", OpClass::Load);
    b.mem("st", "ld", 1);
    const Ddg g = b.take();
    const std::vector<ClusterId> part{0, 0, 1};
    EXPECT_EQ(findCommunications(g, part).count(), 0);
}

TEST(Comms, LoopCarriedFlowStillCommunicates)
{
    DdgBuilder b;
    b.op("x", OpClass::FpAlu);
    b.op("y", OpClass::FpAlu);
    b.flow("x", "y", 2);
    const Ddg g = b.take();
    const std::vector<ClusterId> part{0, 1};
    EXPECT_EQ(findCommunications(g, part).count(), 1);
}

TEST(Comms, CopyConsumersDoNotCount)
{
    Ddg g;
    const NodeId p = g.addNode(OpClass::IntAlu);
    const NodeId c = g.addNode(OpClass::Copy);
    const NodeId w = g.addNode(OpClass::IntAlu);
    g.addEdge(p, c, EdgeKind::RegFlow, 0);
    g.addEdge(c, w, EdgeKind::RegFlow, 0);
    const std::vector<ClusterId> part{0, 0, 1};
    // p's only non-copy consumer is reached through the copy; the
    // copy itself is the communication and is not re-counted.
    EXPECT_EQ(findCommunications(g, part).count(), 0);
}

TEST(BusCapacity, PaperFormula)
{
    // bus_coms = floor(II / bus_lat) * nof_buses.
    const auto m1 = MachineConfig::fromString("4c1b2l64r");
    EXPECT_EQ(busCapacity(m1, 4), 2);
    EXPECT_EQ(busCapacity(m1, 5), 2);
    EXPECT_EQ(busCapacity(m1, 1), 0);

    const auto m2 = MachineConfig::fromString("4c2b4l64r");
    EXPECT_EQ(busCapacity(m2, 8), 4);
    EXPECT_EQ(busCapacity(m2, 7), 2);

    EXPECT_EQ(busCapacity(MachineConfig::unified(), 10), 0);
}

TEST(ExtraComs, Formula)
{
    const auto m = MachineConfig::fromString("4c1b2l64r");
    // II=2 -> capacity 1.
    EXPECT_EQ(extraComs(3, m, 2), 2);
    EXPECT_EQ(extraComs(1, m, 2), 0);
    EXPECT_EQ(extraComs(0, m, 2), 0);
}

TEST(MinBusIi, SmallestFittingIi)
{
    const auto m = MachineConfig::fromString("4c1b2l64r");
    // 3 comms, 1 bus, latency 2 -> II >= 6.
    EXPECT_EQ(minBusIi(3, m), 6);
    EXPECT_EQ(busCapacity(m, 6), 3);
    EXPECT_EQ(busCapacity(m, 5), 2);

    const auto m2 = MachineConfig::fromString("4c4b4l64r");
    // 5 comms, 4 buses, latency 4 -> 2 rounds -> II >= 8.
    EXPECT_EQ(minBusIi(5, m2), 8);
    EXPECT_EQ(minBusIi(0, m2), 1);
}

TEST(Comms, WorkedExampleHasThree)
{
    // The Figure-3 partition implies exactly 3 communications
    // (values of D, E and J).
    DdgBuilder b;
    b.op("A", OpClass::IntAlu);
    b.op("B", OpClass::IntAlu, {"A"});
    b.op("C", OpClass::IntAlu, {"A"});
    b.op("D", OpClass::IntAlu, {"B", "C"});
    b.op("E", OpClass::IntAlu, {"A", "D"});
    b.op("I", OpClass::IntAlu);
    b.op("J", OpClass::IntAlu, {"I", "E"});
    b.op("K", OpClass::IntAlu, {"J"});
    b.op("L", OpClass::IntAlu, {"J"});
    b.op("M", OpClass::IntAlu, {"L"});
    b.op("N", OpClass::IntAlu, {"M"});
    b.op("F", OpClass::IntAlu, {"D"});
    b.op("G", OpClass::IntAlu, {"E", "F"});
    b.op("H", OpClass::IntAlu, {"G", "J"});
    const Ddg g = b.take();

    std::vector<ClusterId> part(g.numNodeSlots(), -1);
    auto assign = [&](const char *n, int c) { part[b.id(n)] = c; };
    assign("L", 0); assign("M", 0); assign("N", 0);
    assign("I", 1); assign("J", 1); assign("K", 1);
    assign("A", 2); assign("B", 2); assign("C", 2);
    assign("D", 2); assign("E", 2);
    assign("F", 3); assign("G", 3); assign("H", 3);

    const auto info = findCommunications(g, part);
    EXPECT_EQ(info.count(), 3);
    EXPECT_TRUE(info.communicated[b.id("D")]);
    EXPECT_TRUE(info.communicated[b.id("E")]);
    EXPECT_TRUE(info.communicated[b.id("J")]);
}

} // namespace
} // namespace cvliw
