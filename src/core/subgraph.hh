/**
 * @file
 * Replication subgraphs (section 3.1, Figure 4). The replication
 * subgraph of a communicated value is the minimum set of instructions
 * that must be duplicated in the consuming clusters so that the
 * communication disappears. Walking up from the communicated
 * producer, a parent joins the subgraph unless its own value is
 * communicated (then it is already available everywhere via the bus
 * broadcast) or an instance of it already exists in the target
 * cluster (a replica created earlier, section 3.4 update rule 3).
 */

#ifndef CVLIW_CORE_SUBGRAPH_HH
#define CVLIW_CORE_SUBGRAPH_HH

#include <utility>
#include <vector>

#include "ddg/ddg.hh"
#include "partition/partition.hh"

namespace cvliw
{

/**
 * Tracks, for every semantic value, the clusters that hold an
 * instance of it (the original or a replica) and the node realizing
 * that instance. Stored as a flat (semantic, cluster) table:
 * replication walks query hasInstance() once per visited node per
 * target cluster, so lookups must be O(1) and allocation-free.
 * Semantic ids are original node ids and replicas inherit them, so
 * the table never grows after construction.
 */
class ReplicaIndex
{
  public:
    /** Seed with the originals of @p ddg under @p part. */
    ReplicaIndex(const Ddg &ddg, const Partition &part);

    /** Is an instance of @p semantic present in @p cluster? */
    bool hasInstance(NodeId semantic, int cluster) const
    {
        return instance(semantic, cluster) != invalidNode;
    }

    /** Node realizing @p semantic in @p cluster (invalidNode if none). */
    NodeId instance(NodeId semantic, int cluster) const
    {
        return byKey_[slot(semantic, cluster)];
    }

    /** Record a new instance. */
    void addInstance(NodeId semantic, int cluster, NodeId node)
    {
        byKey_[slot(semantic, cluster)] = node;
    }

    /** Remove the instance of @p semantic in @p cluster. */
    void removeInstance(NodeId semantic, int cluster)
    {
        byKey_[slot(semantic, cluster)] = invalidNode;
    }

  private:
    std::size_t slot(NodeId semantic, int cluster) const;

    int clusters_ = 1;
    std::vector<NodeId> byKey_; //!< [semantic * clusters_ + cluster]
};

/**
 * The replication subgraph S_com of one communication, together with
 * the clusters every member must be duplicated into.
 */
struct ReplicationSubgraph
{
    /** The communicated producer. */
    NodeId com = invalidNode;

    /** Remote clusters holding consumers of com's value. */
    std::vector<int> targetClusters;

    /**
     * The replicas to create: one (member, target cluster) pair per
     * instance, sorted by node, then cluster. Nodes whose instances
     * already exist in all needed clusters do not appear (paper
     * section 3.4: "A can be removed from S_D").
     */
    std::vector<std::pair<NodeId, int>> required;

    /** Total number of replica instances to create. */
    int totalNewInstances() const
    {
        return static_cast<int>(required.size());
    }

    /** True when @p n is a member with at least one required cluster. */
    bool contains(NodeId n) const;
};

/**
 * How many subgraphs of one replication round's pool need each
 * (member, cluster) pair: the sharing divisor of section 3.3's
 * weight, counted once per round into a flat [node * clusters +
 * cluster] table instead of once per pair and candidate.
 */
class SharerCounts
{
  public:
    /**
     * Count the required pairs of every subgraph of @p pool, whose
     * members are below @p node_slots and whose clusters are below
     * @p clusters.
     */
    void count(const std::vector<ReplicationSubgraph> &pool,
               int node_slots, int clusters);

    /** Subgraphs of the counted pool that need @p n in @p cluster. */
    int of(NodeId n, int cluster) const
    {
        return counts_[static_cast<std::size_t>(n) * clusters_ +
                       static_cast<std::size_t>(cluster)];
    }

  private:
    std::size_t clusters_ = 1;
    std::vector<int> counts_;
};

/**
 * Reusable buffers for findReplicationSubgraph's upward walk: the
 * per-target-cluster visited / needs-a-new-replica flags and the
 * worklist, all node-sized. The replication pass walks subgraphs for
 * every pooled candidate every round, so these allocations dominate
 * without reuse (the `PseudoScratch` pattern: one instance per
 * worker, rebound per call, buffers keep their capacity). A
 * default-constructed scratch works for any graph; passing none
 * falls back to a call-local one.
 */
class SubgraphScratch
{
  public:
    SubgraphScratch() = default;

  private:
    friend ReplicationSubgraph findReplicationSubgraph(
        const Ddg &, const Partition &, NodeId,
        const std::vector<bool> &, const ReplicaIndex &,
        const std::vector<NodeId> &, const std::vector<int> &,
        SubgraphScratch *);

    std::vector<char> visited_;
    std::vector<char> requiredHere_;
    std::vector<NodeId> worklist_;
};

/**
 * Compute the replication subgraph of @p com (Figure 4, extended
 * with the per-cluster instance checks of section 3.4).
 *
 * @param ddg current loop graph (no copies inserted)
 * @param part cluster assignment
 * @param com communicated producer
 * @param communicated per-NodeId flags from findCommunications()
 * @param index existing instances
 * @param extra_seeds additional nodes forced into the subgraph (used
 *        by the section-5.2 macro-node variant); pass {} normally
 * @param target_override when non-empty, replicate toward exactly
 *        these clusters instead of all consumer clusters (used by the
 *        section-5.1 schedule-length variant)
 * @param scratch reusable buffers; null uses a call-local scratch
 */
ReplicationSubgraph
findReplicationSubgraph(const Ddg &ddg, const Partition &part,
                        NodeId com,
                        const std::vector<bool> &communicated,
                        const ReplicaIndex &index,
                        const std::vector<NodeId> &extra_seeds = {},
                        const std::vector<int> &target_override = {},
                        SubgraphScratch *scratch = nullptr);

} // namespace cvliw

#endif // CVLIW_CORE_SUBGRAPH_HH
