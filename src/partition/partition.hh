/**
 * @file
 * Cluster assignment of DDG nodes (the "partition" of section 2.3.1).
 */

#ifndef CVLIW_PARTITION_PARTITION_HH
#define CVLIW_PARTITION_PARTITION_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "ddg/ddg.hh"

namespace cvliw
{

/**
 * Element type of every per-node cluster array (a `Partition`, the
 * arrays the partitioner and the communication analysis take) and of
 * a schedule's per-copy bus ids (`Schedule::busOf`). -1 means
 * "unassigned" or "no bus". One byte holds every id a machine can
 * have: the MachineConfig factories reject more than
 * `MachineConfig::maxUnits` clusters or buses.
 */
using ClusterId = std::int8_t;
static_assert(MachineConfig::maxUnits - 1 <=
                  std::numeric_limits<ClusterId>::max(),
              "every cluster and bus id must fit a ClusterId");

/**
 * Maps every DDG node to a cluster. Grows on demand so that nodes
 * added after partitioning (copies, replicas) can be assigned too.
 */
class Partition
{
  public:
    /** Default: a trivial single-cluster partition of nothing. */
    Partition() : Partition(1, 0) {}

    /**
     * @param num_clusters number of clusters in the machine (at most
     *        MachineConfig::maxUnits)
     * @param num_node_slots initial size of the assignment array
     */
    Partition(int num_clusters, int num_node_slots);

    int numClusters() const { return numClusters_; }

    /** Cluster of @p n; fatal if unassigned. */
    int clusterOf(NodeId n) const;

    /** True when @p n has been assigned. */
    bool isAssigned(NodeId n) const;

    /** Assign @p n to @p cluster (grows the array as needed). */
    void assign(NodeId n, int cluster);

    /**
     * Drop the spare capacity that assign()'s growth left behind.
     * The size, and so every assignment, is unchanged.
     */
    void shrinkToFit() { clusterOf_.shrink_to_fit(); }

    /** Raw assignment vector (-1 = unassigned), indexed by NodeId. */
    const std::vector<ClusterId> &vec() const { return clusterOf_; }

    /**
     * Per-(resource kind, cluster) usage counts of live non-copy ops.
     * Indexed [kind][cluster].
     */
    std::vector<std::vector<int>> usage(const Ddg &ddg,
                                        const MachineConfig &mach) const;

  private:
    int numClusters_;
    std::vector<ClusterId> clusterOf_;
};

} // namespace cvliw

#endif // CVLIW_PARTITION_PARTITION_HH
