/**
 * @file
 * End-to-end gold test of the paper's worked example (Figures 3 and
 * 6, sections 3.1-3.4): subgraphs, exact weights, the S_E selection,
 * dead-code removal of E, the updated subgraphs S_D / S_J and their
 * updated weights, and the final communication count.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/removable.hh"
#include "core/replicator.hh"
#include "core/weights.hh"
#include "paper_graph.hh"
#include "sched/comms.hh"

namespace cvliw
{
namespace
{

TEST(PaperExample, ExtraComsIsOne)
{
    PaperExample ex;
    const auto comms = findCommunications(ex.ddg, ex.part.vec());
    EXPECT_EQ(comms.count(), 3);
    // One 1-cycle bus at II=2 carries 2 transfers.
    EXPECT_EQ(busCapacity(ex.mach, ex.ii), 2);
    EXPECT_EQ(extraComs(comms.count(), ex.mach, ex.ii), 1);
}

TEST(PaperExample, FullReplicationRound)
{
    PaperExample ex;
    ReplicationStats stats;
    const bool ok = reduceCommunications(ex.ddg, ex.part, ex.mach,
                                         ex.ii, &stats);
    ASSERT_TRUE(ok);

    // Exactly one communication (E's) was removed.
    EXPECT_EQ(stats.comsInitial, 3);
    EXPECT_EQ(stats.comsRemoved, 1);
    const auto comms = findCommunications(ex.ddg, ex.part.vec());
    EXPECT_EQ(comms.count(), 2);
    EXPECT_TRUE(comms.communicated[ex.id("D")]);
    EXPECT_TRUE(comms.communicated[ex.id("J")]);

    // S_E = {E, A} into clusters 2 and 4 (ours 1 and 3): 4 replicas.
    EXPECT_EQ(stats.replicasAdded, 4);
    // All replicated instructions are integer ops here.
    EXPECT_EQ(stats.replicasByCat[1], 4);

    // The original E is dead and was removed from cluster 3 (ours 2).
    EXPECT_FALSE(ex.ddg.node(ex.id("E")).alive);
    EXPECT_EQ(stats.instructionsRemoved, 1);
    // A stays: B and C still consume it.
    EXPECT_TRUE(ex.ddg.node(ex.id("A")).alive);
    EXPECT_TRUE(ex.ddg.node(ex.id("D")).alive);

    // J and G now read local replicas of E.
    ReplicaIndex index(ex.ddg, ex.part);
    const NodeId e_r1 = index.instance(ex.id("E"), 1);
    const NodeId e_r3 = index.instance(ex.id("E"), 3);
    ASSERT_NE(e_r1, invalidNode);
    ASSERT_NE(e_r3, invalidNode);
    auto j_preds = ex.ddg.flowPreds(ex.id("J"));
    EXPECT_NE(std::find(j_preds.begin(), j_preds.end(), e_r1),
              j_preds.end());
    auto g_preds = ex.ddg.flowPreds(ex.id("G"));
    EXPECT_NE(std::find(g_preds.begin(), g_preds.end(), e_r3),
              g_preds.end());

    // The replicas of E consume D through the (kept) broadcast of D:
    // D must now also be needed in cluster 2 (ours 1).
    const NodeId d = ex.id("D");
    std::set<int> d_targets;
    for (NodeId w : ex.ddg.flowSuccs(d)) {
        if (ex.part.clusterOf(w) != ex.part.clusterOf(d))
            d_targets.insert(ex.part.clusterOf(w));
    }
    EXPECT_EQ(d_targets, (std::set<int>{1, 3}));
}

TEST(PaperExample, UpdatedSubgraphsAfterSE)
{
    PaperExample ex;
    ReplicationStats stats;
    ASSERT_TRUE(reduceCommunications(ex.ddg, ex.part, ex.mach, ex.ii,
                                     &stats));

    const auto comms = findCommunications(ex.ddg, ex.part.vec());
    ReplicaIndex index(ex.ddg, ex.part);

    // --- updated S_D = {D, B, C} into clusters 2 and 4 -----------------
    const auto sd = findReplicationSubgraph(
        ex.ddg, ex.part, ex.id("D"), comms.communicated, index);
    EXPECT_EQ(sd.targetClusters, (std::vector<int>{1, 3}));
    EXPECT_EQ(memberCount(sd), 3u);
    for (const char *n : {"D", "B", "C"}) {
        EXPECT_EQ(clustersOf(sd, ex.id(n)),
                  (std::vector<int>{1, 3}))
            << n;
    }
    EXPECT_FALSE(sd.contains(ex.id("A"))); // already replicated

    // removable now {D, B, C, A} (Figure 6).
    const auto d_removable = findRemovableInstructions(
        ex.ddg, ex.part, ex.id("D"), comms.communicated);
    EXPECT_EQ(d_removable.size(), 4u);

    // --- updated S_J = {J, I, E, A}; E and A in cluster 1 only ---------
    const auto sj = findReplicationSubgraph(
        ex.ddg, ex.part, ex.id("J"), comms.communicated, index);
    EXPECT_EQ(sj.targetClusters, (std::vector<int>{0, 3}));
    EXPECT_EQ(memberCount(sj), 4u);
    EXPECT_EQ(clustersOf(sj, ex.id("J")), (std::vector<int>{0, 3}));
    EXPECT_EQ(clustersOf(sj, ex.id("I")), (std::vector<int>{0, 3}));
    // E's original is dead; the member is one of its instances with
    // the same semantic id.
    NodeId e_member = invalidNode, a_member = invalidNode;
    for (const auto &[n, c] : sj.required) {
        if (ex.ddg.node(n).semanticId == ex.id("E"))
            e_member = n;
        if (ex.ddg.node(n).semanticId == ex.id("A") &&
            clustersOf(sj, n) == std::vector<int>{0})
            a_member = n;
    }
    ASSERT_NE(e_member, invalidNode);
    EXPECT_EQ(clustersOf(sj, e_member), std::vector<int>{0});
    ASSERT_NE(a_member, invalidNode);

    // --- updated weights (Figure 6): 44/8 and 42/8 ---------------------
    SharerCounts pool;
    pool.count({sd, sj}, ex.ddg.numNodeSlots(), ex.mach.numClusters());
    const Rational wd = subgraphWeight(ex.ddg, ex.mach, ex.part,
                                       ex.ii, sd, pool, d_removable);
    EXPECT_EQ(wd, Rational(44, 8)) << wd.toString();

    const auto j_removable = findRemovableInstructions(
        ex.ddg, ex.part, ex.id("J"), comms.communicated);
    EXPECT_TRUE(j_removable.empty());
    const Rational wj = subgraphWeight(ex.ddg, ex.mach, ex.part,
                                       ex.ii, sj, pool, j_removable);
    EXPECT_EQ(wj, Rational(42, 8)) << wj.toString();
}

TEST(PaperExample, NoOverReplication)
{
    // extra_coms == 1, so exactly one subgraph is replicated even
    // though three communications exist.
    PaperExample ex;
    ReplicationStats stats;
    ASSERT_TRUE(reduceCommunications(ex.ddg, ex.part, ex.mach, ex.ii,
                                     &stats));
    EXPECT_EQ(stats.comsRemoved, 1);
    EXPECT_EQ(stats.roundsConsidered, 1);
}

TEST(PaperExample, WiderBusNeedsNoReplication)
{
    // With 2 buses the three communications fit: nothing replicated.
    PaperExample ex;
    const auto wide = MachineConfig::universal(4, 4, 2, 1, 64);
    ReplicationStats stats;
    ASSERT_TRUE(reduceCommunications(ex.ddg, ex.part, wide, ex.ii,
                                     &stats));
    EXPECT_EQ(stats.comsRemoved, 0);
    EXPECT_EQ(stats.replicasAdded, 0);
    EXPECT_EQ(findCommunications(ex.ddg, ex.part.vec()).count(), 3);
}

} // namespace
} // namespace cvliw
