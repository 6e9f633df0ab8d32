/**
 * @file
 * ResMII / MII tests.
 */

#include <gtest/gtest.h>

#include "ddg/builder.hh"
#include "sched/mii.hh"

namespace cvliw
{
namespace
{

TEST(ResMii, EmptyishGraphIsOne)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    EXPECT_EQ(resourceMii(b.take(), MachineConfig::unified()), 1);
}

TEST(ResMii, MemoryBound)
{
    // 9 loads on a machine with 4 total memory ports -> ceil(9/4)=3.
    DdgBuilder b;
    for (int i = 0; i < 9; ++i)
        b.op("ld" + std::to_string(i), OpClass::Load);
    const Ddg g = b.take();
    EXPECT_EQ(resourceMii(g, MachineConfig::unified()), 3);
    // Clustering does not change the pooled resource bound.
    EXPECT_EQ(resourceMii(g, MachineConfig::fromString("4c1b2l64r")),
              3);
}

TEST(ResMii, PerKindMaximum)
{
    DdgBuilder b;
    for (int i = 0; i < 5; ++i)
        b.op("f" + std::to_string(i), OpClass::FpAlu);
    b.op("ld", OpClass::Load);
    const Ddg g = b.take();
    // 5 fp ops / 4 fp units = 2; 1 load / 4 ports = 1.
    EXPECT_EQ(resourceMii(g, MachineConfig::unified()), 2);
}

TEST(ResMii, UniversalFusPoolEverything)
{
    DdgBuilder b;
    for (int i = 0; i < 9; ++i)
        b.op("x" + std::to_string(i), OpClass::FpMul);
    // 2 clusters x 4 universal FUs = 8 units -> ceil(9/8) = 2.
    const auto m = MachineConfig::universal(2, 4, 1, 1, 64);
    EXPECT_EQ(resourceMii(b.take(), m), 2);
}

TEST(Mii, MaxOfResourceAndRecurrence)
{
    DdgBuilder b;
    b.op("acc", OpClass::FpDiv); // RecMII 18 via self loop
    b.flow("acc", "acc", 1);
    b.op("ld", OpClass::Load);
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();
    EXPECT_EQ(resourceMii(g, m), 1);
    EXPECT_EQ(minimumIi(g, m), 18);
}

TEST(Mii, ResourceDominated)
{
    DdgBuilder b;
    for (int i = 0; i < 12; ++i)
        b.op("ld" + std::to_string(i), OpClass::Load);
    const Ddg g = b.take();
    EXPECT_EQ(minimumIi(g, MachineConfig::unified()), 3);
}

TEST(Mii, CopiesAreIgnored)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    const NodeId c = g.addNode(OpClass::Copy);
    g.addEdge(a, c, EdgeKind::RegFlow, 0);
    EXPECT_EQ(resourceMii(g, MachineConfig::fromString("2c1b2l64r")),
              1);
}

} // namespace
} // namespace cvliw
