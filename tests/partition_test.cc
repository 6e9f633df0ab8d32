/**
 * @file
 * Partitioner tests: assignment container, edge weighting, greedy
 * matching, coarsening hierarchy and the multilevel driver.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ddg/analysis.hh"
#include "ddg/builder.hh"
#include "partition/edge_weights.hh"
#include "partition/matching.hh"
#include "partition/multilevel.hh"
#include "partition/refine.hh"
#include "sched/comms.hh"
#include "sched/mii.hh"
#include "sched/pseudo.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

TEST(Partition, AssignAndQuery)
{
    Partition p(4, 3);
    EXPECT_FALSE(p.isAssigned(0));
    p.assign(0, 2);
    EXPECT_TRUE(p.isAssigned(0));
    EXPECT_EQ(p.clusterOf(0), 2);
    // Grows on demand (copies/replicas get ids beyond the original).
    p.assign(10, 1);
    EXPECT_EQ(p.clusterOf(10), 1);
}

TEST(Partition, LargestClusterIdRoundTrips)
{
    // The widest machine has MachineConfig::maxUnits clusters; its
    // last id must survive the one-byte storage.
    const int clusters = MachineConfig::maxUnits;
    Partition p(clusters, 2);
    p.assign(0, clusters - 1);
    p.assign(5, clusters - 2);
    EXPECT_EQ(p.clusterOf(0), 126);
    EXPECT_EQ(p.clusterOf(5), 125);
    EXPECT_EQ(p.vec()[0], 126);
    EXPECT_FALSE(p.isAssigned(1));
    EXPECT_EQ(p.vec()[1], -1);

    // Trimming the growth slack keeps the size and every entry.
    const std::vector<ClusterId> before = p.vec();
    p.shrinkToFit();
    EXPECT_EQ(p.vec(), before);
    EXPECT_EQ(p.vec().capacity(), p.vec().size());
}

TEST(Partition, UsageCountsByKind)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("f", OpClass::FpAlu, {"ld"});
    b.op("i", OpClass::IntAlu);
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("ld"), 0);
    p.assign(b.id("f"), 0);
    p.assign(b.id("i"), 1);

    const auto usage = p.usage(g, m);
    EXPECT_EQ(usage[size_t(ResourceKind::MemPort)][0], 1);
    EXPECT_EQ(usage[size_t(ResourceKind::FpFu)][0], 1);
    EXPECT_EQ(usage[size_t(ResourceKind::IntFu)][1], 1);
    EXPECT_EQ(usage[size_t(ResourceKind::IntFu)][0], 0);
}

TEST(EdgeWeights, RecurrenceEdgesAreHeaviest)
{
    DdgBuilder b;
    b.op("x", OpClass::FpAlu);
    b.op("y", OpClass::FpAlu, {"x"});
    b.flow("y", "x", 1);                 // recurrence x<->y
    b.op("a", OpClass::IntAlu);
    b.op("z", OpClass::FpDiv, {"a", "y"});
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("4c1b2l64r");
    const auto w = computeEdgeWeights(g, m, analyzeLoop(g, m));

    // Find one recurrence edge and one slack edge.
    long long rec_weight = 0, slack_weight = 0;
    for (EdgeId eid : g.edges()) {
        const DdgEdge &e = g.edge(eid);
        if (e.src == b.id("x") && e.dst == b.id("y"))
            rec_weight = w[eid];
        if (e.src == b.id("a"))
            slack_weight = w[eid];
    }
    EXPECT_GT(rec_weight, slack_weight);
    EXPECT_GT(rec_weight, 64); // recurrence bonus applied
}

TEST(EdgeWeights, MemoryEdgesAreFree)
{
    DdgBuilder b;
    b.op("v", OpClass::IntAlu);
    b.op("st", OpClass::Store, {"v"});
    b.op("ld", OpClass::Load);
    b.mem("st", "ld", 1);
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const auto w = computeEdgeWeights(g, m, analyzeLoop(g, m));
    for (EdgeId eid : g.edges()) {
        if (g.edge(eid).kind == EdgeKind::Memory)
            EXPECT_EQ(w[eid], 0);
        else
            EXPECT_GT(w[eid], 0);
    }
}

TEST(Matching, PrefersHeavyEdges)
{
    std::vector<MatchEdge> edges{
        {0, 1, 10}, {1, 2, 100}, {2, 3, 10}, {0, 3, 1}};
    const auto pairs =
        greedyMatching(4, edges, [](int, int) { return true; });
    // Heaviest first: (1,2) matched, then (0,3).
    ASSERT_EQ(pairs.size(), 2u);
    EXPECT_EQ(pairs[0], (std::pair<int, int>(1, 2)));
    EXPECT_EQ(pairs[1], (std::pair<int, int>(0, 3)));
}

TEST(Matching, RespectsFeasibility)
{
    std::vector<MatchEdge> edges{{0, 1, 100}, {0, 2, 10}};
    const auto pairs = greedyMatching(
        3, edges, [](int a, int b) { return !(a == 0 && b == 1); });
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0], (std::pair<int, int>(0, 2)));
}

TEST(Matching, Deterministic)
{
    std::vector<MatchEdge> edges{{0, 1, 5}, {2, 3, 5}, {1, 2, 5}};
    const auto p1 =
        greedyMatching(4, edges, [](int, int) { return true; });
    const auto p2 =
        greedyMatching(4, edges, [](int, int) { return true; });
    EXPECT_EQ(p1, p2);
}

TEST(Coarsen, StopsAtCapacityFrontier)
{
    DdgBuilder b;
    for (int i = 0; i < 12; ++i)
        b.op("n" + std::to_string(i), OpClass::IntAlu);
    for (int i = 0; i + 1 < 12; ++i)
        b.flow("n" + std::to_string(i), "n" + std::to_string(i + 1));
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("4c1b2l64r");
    const auto hier =
        coarsen(g, m, 3, computeEdgeWeights(g, m, analyzeLoop(g, m)));

    const int last = hier.numLevels() - 1;
    // Never fewer macro-nodes than clusters; every node mapped; and
    // no macro exceeds the capacity available * II = 1 * 3 int ops.
    EXPECT_GE(hier.numGroups(last), 4);
    std::vector<int> members(hier.numGroups(last), 0);
    for (NodeId n : g.nodes()) {
        const int grp = hier.groupOf(n, last);
        ASSERT_GE(grp, 0);
        ++members[grp];
    }
    for (int count : members)
        EXPECT_LE(count, 3);
}

TEST(Coarsen, HierarchyLevelsNest)
{
    DdgBuilder b;
    for (int i = 0; i < 16; ++i)
        b.op("n" + std::to_string(i), OpClass::IntAlu);
    for (int i = 0; i + 1 < 16; ++i)
        b.flow("n" + std::to_string(i), "n" + std::to_string(i + 1));
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const auto hier =
        coarsen(g, m, 8, computeEdgeWeights(g, m, analyzeLoop(g, m)));

    ASSERT_GE(hier.numLevels(), 2);
    for (int l = 1; l < hier.numLevels(); ++l) {
        // Same group at level l-1 implies same group at level l.
        for (NodeId x : g.nodes()) {
            for (NodeId y : g.nodes()) {
                if (hier.groupOf(x, l - 1) == hier.groupOf(y, l - 1))
                    EXPECT_EQ(hier.groupOf(x, l), hier.groupOf(y, l));
            }
        }
        EXPECT_LE(hier.numGroups(l), hier.numGroups(l - 1));
    }
}

TEST(Coarsen, MembersOfGroup)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu, {"a"});
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const auto hier =
        coarsen(g, m, 4, computeEdgeWeights(g, m, analyzeLoop(g, m)));
    const auto members = hier.membersOf(b.id("a"), 0);
    EXPECT_EQ(members.size(), 1u);
}

TEST(Multilevel, UnifiedPutsEverythingInClusterZero)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::FpAlu, {"a"});
    const Ddg g = b.take();
    const auto pr =
        multilevelPartition(g, MachineConfig::unified(), 1);
    for (NodeId n : g.nodes())
        EXPECT_EQ(pr.partition.clusterOf(n), 0);
}

TEST(Multilevel, KeepsConnectedChainsTogether)
{
    // Two independent chains on a 2-cluster machine must land in
    // separate clusters: zero communications.
    DdgBuilder b;
    for (int c = 0; c < 2; ++c) {
        const std::string p = "c" + std::to_string(c) + "_";
        b.op(p + "0", OpClass::Load);
        for (int i = 1; i < 5; ++i) {
            b.op(p + std::to_string(i), OpClass::FpAlu,
                 {p + std::to_string(i - 1)});
        }
    }
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const auto pr = multilevelPartition(g, m, minimumIi(g, m));
    EXPECT_EQ(findCommunications(g, pr.partition.vec()).count(), 0);
}

TEST(Multilevel, AssignsEveryNode)
{
    const auto loops = buildBenchmark("hydro2d");
    const auto m = MachineConfig::fromString("4c2b2l64r");
    for (std::size_t i = 0; i < 5 && i < loops.size(); ++i) {
        const Ddg &g = loops[i].ddg;
        const auto pr = multilevelPartition(g, m, minimumIi(g, m));
        for (NodeId n : g.nodes()) {
            const int c = pr.partition.clusterOf(n);
            EXPECT_GE(c, 0);
            EXPECT_LT(c, 4);
        }
    }
}

TEST(Refine, NeverWorsensTheMetric)
{
    const auto loops = buildBenchmark("wave5");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    for (std::size_t i = 0; i < 5 && i < loops.size(); ++i) {
        const Ddg &g = loops[i].ddg;
        const int ii = minimumIi(g, m);
        // Degenerate start: everything in cluster 0.
        Partition p(4, g.numNodeSlots());
        for (NodeId n : g.nodes())
            p.assign(n, 0);
        PseudoScratch scratch;
        const LoopAnalysis analysis = analyzeLoop(g, m);
        const auto before =
            pseudoSchedule(g, m, analysis, p.vec(), ii, scratch);
        const Partition refined = refinePartition(g, m, p, ii);
        const auto after =
            pseudoSchedule(g, m, analysis, refined.vec(), ii, scratch);
        EXPECT_FALSE(before.better(after));
    }
}

TEST(Refine, SplitsOverloadedCluster)
{
    DdgBuilder b;
    for (int i = 0; i < 8; ++i)
        b.op("ld" + std::to_string(i), OpClass::Load);
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("4c1b2l64r");
    Partition p(4, g.numNodeSlots());
    for (NodeId n : g.nodes())
        p.assign(n, 0);
    const Partition refined = refinePartition(g, m, p, 2);
    // 8 loads, 1 port per cluster, II=2: needs all 4 clusters.
    const auto usage = refined.usage(g, m);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(usage[size_t(ResourceKind::MemPort)][c], 2);
}

} // namespace
} // namespace cvliw
