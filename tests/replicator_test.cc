/**
 * @file
 * Replicator mechanics beyond the worked example: recurrence
 * replication, dead-code removal scope, infeasibility, targeted
 * (section 5.1) replication and macro-node mode.
 */

#include <gtest/gtest.h>

#include "core/replicator.hh"
#include "paper_graph.hh"
#include "partition/edge_weights.hh"
#include "sched/comms.hh"

namespace cvliw
{
namespace
{

TEST(Replicator, ReplicatesRecurrenceAsAUnit)
{
    // x <-> y recurrence in cluster 0 feeding w in cluster 1; one
    // bus transfer too many at II=1... use a machine whose capacity
    // at the probed II is zero to force replication.
    DdgBuilder b;
    b.op("x", OpClass::IntAlu);
    b.op("y", OpClass::IntAlu, {"x"});
    b.flow("y", "x", 1);
    b.op("w", OpClass::IntAlu, {"y"});
    b.liveOut("w");
    Ddg g = b.take();
    // Universal FUs so the pair fits next to w at II=1.
    const auto m = MachineConfig::universal(2, 4, 1, 2, 64);
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("x"), 0);
    p.assign(b.id("y"), 0);
    p.assign(b.id("w"), 1);

    // II=1 -> busCapacity 0 -> the single comm must disappear.
    ReplicationStats stats;
    ASSERT_TRUE(reduceCommunications(g, p, m, 1, &stats));
    EXPECT_EQ(findCommunications(g, p.vec()).count(), 0);
    // Both recurrence nodes replicated into cluster 1.
    EXPECT_EQ(stats.replicasAdded, 2);
    // Originals x, y died (their only consumer was remote).
    EXPECT_FALSE(g.node(b.id("x")).alive);
    EXPECT_FALSE(g.node(b.id("y")).alive);
    // The replica recurrence is intact: find the loop-carried edge.
    int carried = 0;
    for (EdgeId eid : g.edges())
        carried += (g.edge(eid).distance > 0);
    EXPECT_EQ(carried, 1);
}

TEST(Replicator, InfeasibleWhenTargetFull)
{
    // The target cluster has no spare capacity at this II.
    DdgBuilder b;
    b.op("p", OpClass::Load);
    b.op("w", OpClass::FpAlu, {"p"});
    // Fill cluster 1 with memory ops so the load cannot replicate.
    b.op("m0", OpClass::Load);
    b.op("m1", OpClass::Store, {"w"});
    b.liveOut("w");
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("4c1b2l64r");
    Partition p(4, g.numNodeSlots());
    p.assign(b.id("p"), 0);
    p.assign(b.id("w"), 1);
    p.assign(b.id("m0"), 1);
    p.assign(b.id("m1"), 1);

    // II=1: capacity 0, comm must go; but cluster 1's single memory
    // port is taken by m0 at II=1: replication infeasible.
    ReplicationStats stats;
    EXPECT_FALSE(reduceCommunications(g, p, m, 1, &stats));
}

TEST(Replicator, DeadRemovalDoesNotTouchPreexistingSinks)
{
    PaperExample ex;
    ReplicationStats stats;
    ASSERT_TRUE(reduceCommunications(ex.ddg, ex.part, ex.mach, ex.ii,
                                     &stats));
    // N, K, H (live-out sinks) and all mid-chain nodes survive.
    for (const char *n :
         {"A", "B", "C", "D", "I", "J", "K", "L", "M", "N", "F", "G",
          "H"}) {
        EXPECT_TRUE(ex.ddg.node(ex.id(n)).alive) << n;
    }
}

TEST(Replicator, TargetedReplicationKeepsComm)
{
    // Section 5.1: replicate E only into cluster 2 (ours 1); the
    // communication survives for cluster 4's consumer.
    PaperExample ex;
    ReplicationStats stats;
    ASSERT_TRUE(replicateIntoCluster(ex.ddg, ex.part, ex.mach, ex.ii,
                                     ex.id("E"), 1, &stats));
    EXPECT_EQ(stats.replicasAdded, 2); // E and A into cluster 1
    const auto comms = findCommunications(ex.ddg, ex.part.vec());
    // E still communicates (G in cluster 3 reads the original).
    EXPECT_TRUE(comms.communicated[ex.id("E")]);
    EXPECT_EQ(comms.count(), 3);
    EXPECT_TRUE(ex.ddg.node(ex.id("E")).alive);
}

TEST(Replicator, TargetedReplicationNoOpCases)
{
    PaperExample ex;
    // Same cluster: nothing to do.
    EXPECT_FALSE(replicateIntoCluster(ex.ddg, ex.part, ex.mach, ex.ii,
                                      ex.id("E"), 2));
    // A does not communicate at all.
    EXPECT_FALSE(replicateIntoCluster(ex.ddg, ex.part, ex.mach, ex.ii,
                                      ex.id("A"), 0));
}

TEST(Replicator, MacroNodeModeReplicatesMore)
{
    PaperExample ex;

    // Build a coarsening hierarchy for the macro-node variant.
    const auto weights = computeEdgeWeights(
        ex.ddg, ex.mach, analyzeLoop(ex.ddg, ex.mach));
    const auto hier = coarsen(ex.ddg, ex.mach, ex.ii, weights);

    Ddg g_min = ex.ddg;
    Partition p_min = ex.part;
    ReplicationStats min_stats;
    ASSERT_TRUE(reduceCommunications(g_min, p_min, ex.mach, ex.ii,
                                     &min_stats,
                                     ReplicationMode::MinWeight));

    Ddg g_mac = ex.ddg;
    Partition p_mac = ex.part;
    ReplicationStats mac_stats;
    const bool ok = reduceCommunications(g_mac, p_mac, ex.mach, ex.ii,
                                         &mac_stats,
                                         ReplicationMode::MacroNode,
                                         &hier);
    if (ok) {
        // Section 5.2's conclusion: macro-nodes replicate at least
        // as many instructions as the minimal subgraphs.
        EXPECT_GE(mac_stats.replicasAdded, min_stats.replicasAdded);
    }
    EXPECT_EQ(min_stats.comsRemoved, 1);
}

TEST(Replicator, StatsCategoriesSplit)
{
    // A load+int chain crossing clusters: replicas counted by class.
    DdgBuilder b;
    b.op("addr", OpClass::IntAlu);
    b.op("ld", OpClass::Load, {"addr"});
    b.op("w", OpClass::FpAlu, {"ld"});
    b.liveOut("w");
    Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("addr"), 0);
    p.assign(b.id("ld"), 0);
    p.assign(b.id("w"), 1);

    ReplicationStats stats;
    ASSERT_TRUE(reduceCommunications(g, p, m, 1, &stats));
    EXPECT_EQ(stats.replicasByCat[0], 1); // mem (the load)
    EXPECT_EQ(stats.replicasByCat[1], 1); // int (the address)
    EXPECT_EQ(stats.replicasByCat[2], 0);
}

} // namespace
} // namespace cvliw
