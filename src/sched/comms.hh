/**
 * @file
 * Inter-cluster communication accounting. A value communicates when
 * its producer and at least one register-flow consumer live in
 * different clusters. One broadcast bus transfer serves all remote
 * consumers of a value (section 2.1), so the communication count is
 * per *value*, not per edge. The bus capacity formula follows
 * section 3: bus_coms = floor(II / bus_lat) * nof_buses.
 */

#ifndef CVLIW_SCHED_COMMS_HH
#define CVLIW_SCHED_COMMS_HH

#include <vector>

#include "ddg/ddg.hh"
#include "partition/partition.hh"

namespace cvliw
{

/** Communications implied by a cluster assignment. */
struct CommInfo
{
    /** Producers whose values cross clusters, in NodeId order. */
    std::vector<NodeId> producers;

    /** Indexed by NodeId: true when the node's value communicates. */
    std::vector<bool> communicated;

    /** Number of communications (== producers.size()). */
    int count() const { return static_cast<int>(producers.size()); }

    /**
     * Patch this CommInfo after a graph edit: recompute the flags of
     * just the @p touched nodes (duplicates, dead nodes and
     * non-producers are fine; new node ids grow the flag array),
     * then rebuild `producers` from the flags. The caller guarantees
     * that every node whose consumers, cluster or out-edges changed
     * is in @p touched; the result is then exactly
     * findCommunications() on the edited graph, at the cost of the
     * touched nodes' out-degrees plus one pass over the flags.
     */
    void update(const Ddg &ddg, const std::vector<ClusterId> &cluster_of,
                const std::vector<NodeId> &touched);
};

/**
 * Find all communications for @p cluster_of (indexed by NodeId).
 * Copy nodes are ignored: they are the realization of communications,
 * not producers of new ones.
 */
CommInfo findCommunications(const Ddg &ddg,
                            const std::vector<ClusterId> &cluster_of);

/** Max communications schedulable in one II: floor(II/lat)*buses. */
int busCapacity(const MachineConfig &mach, int ii);

/** extra_coms = max(0, nof_coms - busCapacity). */
int extraComs(int nof_coms, const MachineConfig &mach, int ii);

/** Smallest II whose bus capacity fits @p nof_coms (>= 1). */
int minBusIi(int nof_coms, const MachineConfig &mach);

} // namespace cvliw

#endif // CVLIW_SCHED_COMMS_HH
