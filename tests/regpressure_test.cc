/**
 * @file
 * MaxLive register-pressure tests: lifetime accounting, modulo
 * wrapping of long lifetimes (exact per-phase counts for a 2^28
 * distance, saturation past INT_MAX) and copy-delivered values.
 */

#include <gtest/gtest.h>

#include <limits>

#include "ddg/builder.hh"
#include "sched/regpressure.hh"

namespace cvliw
{
namespace
{

/** Build a schedule vector by (node, cycle) pairs. */
std::vector<int>
starts(const Ddg &g, std::initializer_list<std::pair<NodeId, int>> s)
{
    std::vector<int> v(g.numNodeSlots(), -1);
    for (const auto &[n, t] : s)
        v[n] = t;
    return v;
}

TEST(MaxLive, SimpleChain)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu); // lat 1
    b.op("c", OpClass::IntAlu, {"a"});
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    Partition p(1, g.numNodeSlots());
    p.assign(b.id("a"), 0);
    p.assign(b.id("c"), 0);

    // a at 0 (def at 1), c reads at 1: live range [1, 1) = empty.
    auto ml = computeMaxLive(
        g, m, p, starts(g, {{b.id("a"), 0}, {b.id("c"), 1}}), 2);
    EXPECT_EQ(ml[0], 0);

    // c reads at 4: live [1, 4): 3 cycles over II=2 -> overlaps.
    ml = computeMaxLive(
        g, m, p, starts(g, {{b.id("a"), 0}, {b.id("c"), 4}}), 2);
    EXPECT_EQ(ml[0], 2); // phases 1,0,1 -> phase1 twice
}

TEST(MaxLive, LoopCarriedUseExtendsLifetime)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu);
    b.flow("a", "c", 2); // consumer two iterations later
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    Partition p(1, g.numNodeSlots());
    p.assign(b.id("a"), 0);
    p.assign(b.id("c"), 0);

    // II=3: a defs at 1, c reads at 0 + 2*3 = 6: live [1,6).
    const auto ml = computeMaxLive(
        g, m, p, starts(g, {{b.id("a"), 0}, {b.id("c"), 0}}), 3);
    // 5 cycles of life across II=3: ceil coverage -> 2 at some phase.
    EXPECT_EQ(ml[0], 2);
}

TEST(MaxLive, CopyCreatesRemotePressureOnly)
{
    Ddg g;
    const NodeId prod = g.addNode(OpClass::IntAlu, "p");
    const NodeId copy = g.addNode(OpClass::Copy, "p.copy");
    const NodeId cons = g.addNode(OpClass::IntAlu, "w");
    g.addEdge(prod, copy, EdgeKind::RegFlow, 0);
    g.addEdge(copy, cons, EdgeKind::RegFlow, 0);
    const auto m = MachineConfig::fromString("2c1b2l64r"); // bus lat 2
    Partition p(2, g.numNodeSlots());
    p.assign(prod, 0);
    p.assign(copy, 0);
    p.assign(cons, 1);

    // p at 0 (def 1), copy at 1 (arrives 3), w reads at 8.
    std::vector<int> st(g.numNodeSlots(), -1);
    st[prod] = 0;
    st[copy] = 1;
    st[cons] = 8;
    const auto ml = computeMaxLive(g, m, p, st, 4);
    // Cluster 0: p live [1, 1): copy reads at 1 -> empty... the
    // copy's read at cycle 1 ends the local lifetime: range [1,1).
    EXPECT_EQ(ml[0], 0);
    // Cluster 1: value live [3, 8) = 5 cycles over II=4: max 2.
    EXPECT_EQ(ml[1], 2);
}

TEST(MaxLive, StoresProduceNothing)
{
    DdgBuilder b;
    b.op("v", OpClass::IntAlu);
    b.op("st", OpClass::Store, {"v"});
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    Partition p(1, g.numNodeSlots());
    p.assign(b.id("v"), 0);
    p.assign(b.id("st"), 0);
    const auto ml = computeMaxLive(
        g, m, p, starts(g, {{b.id("v"), 0}, {b.id("st"), 1}}), 1);
    // v live [1,1): 0; store defines nothing.
    EXPECT_EQ(ml[0], 0);
}

TEST(MaxLive, ManyOverlappingValues)
{
    // II=1 with lifetime 4 each: 4 simultaneous copies of each value.
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu, {"a"});
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    Partition p(1, g.numNodeSlots());
    p.assign(b.id("a"), 0);
    p.assign(b.id("c"), 0);
    const auto ml = computeMaxLive(
        g, m, p, starts(g, {{b.id("a"), 0}, {b.id("c"), 5}}), 1);
    EXPECT_EQ(ml[0], 4); // live [1,5) wraps II=1 four times
}

TEST(MaxLive, HugeDistancePhaseCountsMatchClosedForm)
{
    // a's value is read 2^28 iterations later: at II 5 it lives
    // len = 5 * 2^28 + 2 cycles, so every phase holds len / 5 copies
    // and the len % 5 phases from def's on hold one more. A one-cycle
    // probe value at phase p reads phase p's count back: the counts
    // differ by at most one, so MaxLive = count[p] + 1.
    constexpr int ii = 5;
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu);
    b.flow("a", "c", 1 << 28);
    b.op("x", OpClass::IntAlu);
    b.op("y", OpClass::IntAlu, {"x"});
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    Partition part(1, g.numNodeSlots());
    for (NodeId n = 0; n < g.numNodeSlots(); ++n)
        part.assign(n, 0);
    const int lat = m.latency(OpClass::IntAlu);

    const long long def = lat;
    const long long len = 3 + ii * (1LL << 28) - def;
    for (int p = 0; p < ii; ++p) {
        const int x_def = 10 * ii + p;
        const auto ml = computeMaxLive(
            g, m, part,
            starts(g, {{b.id("a"), 0},
                       {b.id("c"), 3},
                       {b.id("x"), x_def - lat},
                       {b.id("y"), x_def + 1}}),
            ii);
        const long long count =
            len / ii + ((p - def % ii + ii) % ii < len % ii ? 1 : 0);
        EXPECT_EQ(ml[0], count + 1) << "phase " << p;
    }
}

TEST(MaxLive, CountsPastIntMaxSaturate)
{
    // Three values read 2^30 iterations later at II 2: each range
    // runs to the INT_MAX clamp on its last use, 2^30 - 1 copies per
    // phase, so their sum in one phase passes INT_MAX.
    Ddg g;
    for (int v = 0; v < 3; ++v) {
        const NodeId def = g.addNode(OpClass::IntAlu);
        const NodeId use = g.addNode(OpClass::IntAlu);
        g.addEdge(def, use, EdgeKind::RegFlow, 1 << 30);
    }
    const auto m = MachineConfig::unified();
    Partition part(1, g.numNodeSlots());
    for (NodeId n = 0; n < g.numNodeSlots(); ++n)
        part.assign(n, 0);
    const std::vector<int> start(g.numNodeSlots(), 0);
    const auto ml = computeMaxLive(g, m, part, start, 2);
    EXPECT_EQ(ml[0], std::numeric_limits<int>::max());
}

} // namespace
} // namespace cvliw
