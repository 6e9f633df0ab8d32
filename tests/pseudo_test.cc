/**
 * @file
 * Pseudo-scheduler tests: partition-induced II, overflow accounting,
 * estimated length with cut-edge penalties and the comparison metric.
 */

#include <gtest/gtest.h>

#include "ddg/analysis.hh"
#include "ddg/builder.hh"
#include "sched/pseudo.hh"

namespace cvliw
{
namespace
{

TEST(Pseudo, BalancedPartitionIsFeasible)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::FpAlu, {"a"});
    b.op("x", OpClass::IntAlu);
    b.op("y", OpClass::FpAlu, {"x"});
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    PseudoScratch scratch;
    const LoopAnalysis analysis = analyzeLoop(g, m);

    const std::vector<ClusterId> part{0, 0, 1, 1};
    const auto r = pseudoSchedule(g, m, analysis, part, 1, scratch);
    EXPECT_EQ(r.comms, 0);
    EXPECT_EQ(r.overflow, 0);
    EXPECT_EQ(r.iiPart, 1);
    EXPECT_EQ(r.imbalance, 0);
}

TEST(Pseudo, ResourcePressureRaisesIiPart)
{
    DdgBuilder b;
    for (int i = 0; i < 4; ++i)
        b.op("ld" + std::to_string(i), OpClass::Load);
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("4c1b2l64r");
    PseudoScratch scratch;
    const LoopAnalysis analysis = analyzeLoop(g, m);
    // All four loads in one cluster with one memory port: IIpart 4.
    const std::vector<ClusterId> part{0, 0, 0, 0};
    EXPECT_EQ(pseudoSchedule(g, m, analysis, part, 2, scratch).iiPart,
              4);
    // Spread out: IIpart 1 (one load per cluster).
    const std::vector<ClusterId> spread{0, 1, 2, 3};
    EXPECT_EQ(pseudoSchedule(g, m, analysis, spread, 2, scratch).iiPart,
              1);
}

TEST(Pseudo, BusPressureRaisesIiPart)
{
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("q", OpClass::IntAlu);
    b.op("r", OpClass::IntAlu);
    b.op("w", OpClass::IntAlu, {"p", "q", "r"});
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("4c1b2l64r");
    PseudoScratch scratch;
    const LoopAnalysis analysis = analyzeLoop(g, m);
    // Three producers remote from w: 3 comms, 1 bus of latency 2
    // -> bus-induced II 6.
    const std::vector<ClusterId> part{0, 1, 2, 3};
    const auto r = pseudoSchedule(g, m, analysis, part, 2, scratch);
    EXPECT_EQ(r.comms, 3);
    EXPECT_EQ(r.iiPart, 6);
    EXPECT_GT(r.overflow, 0); // at II=2 only 1 comm fits
}

TEST(Pseudo, CutEdgesLengthenEstimate)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);          // lat 1
    b.op("z", OpClass::IntAlu, {"a"});   // lat 1
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    PseudoScratch scratch;
    const LoopAnalysis analysis = analyzeLoop(g, m);

    const std::vector<ClusterId> together{0, 0};
    const std::vector<ClusterId> split{0, 1};
    const auto r0 = pseudoSchedule(g, m, analysis, together, 2, scratch);
    const auto r1 = pseudoSchedule(g, m, analysis, split, 2, scratch);
    EXPECT_EQ(r0.length, 2);
    EXPECT_EQ(r1.length, 4); // + 2-cycle bus on the cut edge
}

TEST(Pseudo, BetterIsLexicographic)
{
    PseudoResult a, b;
    a.iiPart = 2;
    b.iiPart = 3;
    EXPECT_TRUE(a.better(b));
    EXPECT_FALSE(b.better(a));

    b.iiPart = 2;
    a.overflow = 0;
    b.overflow = 1;
    EXPECT_TRUE(a.better(b));

    b.overflow = 0;
    a.comms = 1;
    b.comms = 2;
    EXPECT_TRUE(a.better(b));

    b.comms = 1;
    a.length = 10;
    b.length = 11;
    EXPECT_TRUE(a.better(b));

    b.length = 10;
    EXPECT_FALSE(a.better(b));
    EXPECT_FALSE(b.better(a)); // equal metrics
}

TEST(Pseudo, ImbalanceMeasured)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu);
    b.op("d", OpClass::IntAlu);
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    PseudoScratch scratch;
    const LoopAnalysis analysis = analyzeLoop(g, m);
    EXPECT_EQ(
        pseudoSchedule(g, m, analysis, {0, 0, 0}, 2, scratch).imbalance,
        3);
    EXPECT_EQ(
        pseudoSchedule(g, m, analysis, {0, 0, 1}, 2, scratch).imbalance,
        1);
}

} // namespace
} // namespace cvliw
