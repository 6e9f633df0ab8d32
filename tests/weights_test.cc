/**
 * @file
 * Subgraph weighting tests (section 3.3): the paper's exact rational
 * weights, sharing division and feasibility.
 */

#include <gtest/gtest.h>

#include "core/removable.hh"
#include "core/weights.hh"
#include "paper_graph.hh"
#include "sched/comms.hh"

namespace cvliw
{
namespace
{

struct WeightedPool
{
    std::vector<ReplicationSubgraph> pool;
    SharerCounts sharers;
    CommInfo comms;

    WeightedPool(const PaperExample &ex)
        : comms(findCommunications(ex.ddg, ex.part.vec()))
    {
        ReplicaIndex index(ex.ddg, ex.part);
        for (NodeId com : comms.producers) {
            pool.push_back(findReplicationSubgraph(
                ex.ddg, ex.part, com, comms.communicated, index));
        }
        sharers.count(pool, ex.ddg.numNodeSlots(), ex.mach.numClusters());
    }

    const ReplicationSubgraph &
    of(NodeId com) const
    {
        for (const auto &sg : pool) {
            if (sg.com == com)
                return sg;
        }
        throw std::runtime_error("no subgraph");
    }
};

TEST(Weights, PaperWeightSD)
{
    PaperExample ex;
    WeightedPool wp(ex);
    const auto removable = findRemovableInstructions(
        ex.ddg, ex.part, ex.id("D"), wp.comms.communicated);
    const Rational w =
        subgraphWeight(ex.ddg, ex.mach, ex.part, ex.ii,
                       wp.of(ex.id("D")), wp.sharers, removable);
    EXPECT_EQ(w, Rational(49, 16)) << w.toString();
}

TEST(Weights, PaperWeightSE)
{
    PaperExample ex;
    WeightedPool wp(ex);
    const auto removable = findRemovableInstructions(
        ex.ddg, ex.part, ex.id("E"), wp.comms.communicated);
    const Rational w =
        subgraphWeight(ex.ddg, ex.mach, ex.part, ex.ii,
                       wp.of(ex.id("E")), wp.sharers, removable);
    EXPECT_EQ(w, Rational(31, 16)) << w.toString();
}

TEST(Weights, PaperWeightSJ)
{
    PaperExample ex;
    WeightedPool wp(ex);
    const auto removable = findRemovableInstructions(
        ex.ddg, ex.part, ex.id("J"), wp.comms.communicated);
    const Rational w =
        subgraphWeight(ex.ddg, ex.mach, ex.part, ex.ii,
                       wp.of(ex.id("J")), wp.sharers, removable);
    EXPECT_EQ(w, Rational(40, 16)) << w.toString();
}

TEST(Weights, SEIsTheMinimum)
{
    PaperExample ex;
    WeightedPool wp(ex);
    std::vector<std::pair<NodeId, Rational>> weights;
    for (const auto &sg : wp.pool) {
        const auto removable = findRemovableInstructions(
            ex.ddg, ex.part, sg.com, wp.comms.communicated);
        weights.emplace_back(
            sg.com, subgraphWeight(ex.ddg, ex.mach, ex.part, ex.ii,
                                   sg, wp.sharers, removable));
    }
    NodeId best = invalidNode;
    Rational best_w;
    for (const auto &[com, w] : weights) {
        if (best == invalidNode || w < best_w) {
            best = com;
            best_w = w;
        }
    }
    EXPECT_EQ(best, ex.id("E"));
}

TEST(Weights, SharingDividesTerm)
{
    // A in cluster 4 is needed by S_D and S_E -> its term is halved
    // for both. Verify by removing the other subgraph from the pool:
    // the weight of S_E must rise by 5/16 (5/8 instead of 5/16).
    PaperExample ex;
    WeightedPool wp(ex);
    const auto removable = findRemovableInstructions(
        ex.ddg, ex.part, ex.id("E"), wp.comms.communicated);

    SharerCounts only_se;
    only_se.count({wp.of(ex.id("E"))}, ex.ddg.numNodeSlots(),
                  ex.mach.numClusters());
    const Rational alone =
        subgraphWeight(ex.ddg, ex.mach, ex.part, ex.ii,
                       wp.of(ex.id("E")), only_se, removable);
    EXPECT_EQ(alone, Rational(36, 16)) << alone.toString();
}

TEST(Weights, FeasibilityRespectsCapacity)
{
    PaperExample ex;
    WeightedPool wp(ex);
    // 4 universal FUs x II=2 = 8 slots per cluster; cluster 3 holds
    // 3 ops; adding S_D's 4 replicas keeps it at 7 <= 8: feasible.
    EXPECT_TRUE(replicationFeasible(ex.ddg, ex.mach, ex.part, 2,
                                    wp.of(ex.id("D"))));
    // At II=1 capacity is 4 and 3+4=7 > 4: infeasible.
    EXPECT_FALSE(replicationFeasible(ex.ddg, ex.mach, ex.part, 1,
                                     wp.of(ex.id("D"))));
}

TEST(Weights, HeterogeneousInfeasibleWithoutUnits)
{
    // An fp op cannot replicate into a cluster without fp units.
    DdgBuilder b;
    b.op("f", OpClass::FpAlu);
    b.op("w", OpClass::IntAlu, {"f"});
    Ddg g = b.take();
    const auto m =
        MachineConfig::custom(2, {2, 0, 1, 0}, 1, 1, 64); // no fp FUs
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("f"), 0);
    p.assign(b.id("w"), 1);
    const auto comms = findCommunications(g, p.vec());
    ReplicaIndex index(g, p);
    const auto sg = findReplicationSubgraph(
        g, p, b.id("f"), comms.communicated, index);
    EXPECT_FALSE(replicationFeasible(g, m, p, 4, sg));
}

} // namespace
} // namespace cvliw
