#include "sched/comms.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

/**
 * Sorted remote consumer clusters of @p n's value (cleared when the
 * node is dead, a copy or produces no value). The single source of
 * the per-node communication rule, shared by the from-scratch scan
 * and the incremental patch so they can never disagree.
 */
void
remoteClustersOf(const Ddg &ddg,
                 const std::vector<ClusterId> &cluster_of, NodeId n,
                 std::vector<int> &remote)
{
    remote.clear();
    const DdgNode &node = ddg.node(n);
    if (!node.alive || node.cls == OpClass::Copy ||
        !producesValue(node.cls)) {
        return;
    }
    cv_assert(n < static_cast<NodeId>(cluster_of.size()) &&
              cluster_of[n] >= 0,
              "node n", n, " has no cluster");

    for (EdgeId eid : ddg.outEdgesRaw(n)) {
        const DdgEdge &e = ddg.edge(eid);
        if (!e.alive || e.kind != EdgeKind::RegFlow)
            continue;
        const NodeId succ = e.dst;
        // A consumer that is a copy of this very value does not
        // count; copies are inserted after this analysis runs.
        if (ddg.node(succ).cls == OpClass::Copy)
            continue;
        const int c = cluster_of[succ];
        if (c != cluster_of[n])
            remote.push_back(c);
    }
    std::sort(remote.begin(), remote.end());
    remote.erase(std::unique(remote.begin(), remote.end()),
                 remote.end());
}

} // namespace

CommInfo
findCommunications(const Ddg &ddg,
                   const std::vector<ClusterId> &cluster_of)
{
    CommInfo info;
    info.communicated.assign(ddg.numNodeSlots(), false);

    std::vector<int> remote; // reused across nodes; hot path
    for (NodeId n : ddg.nodes()) {
        const DdgNode &node = ddg.node(n);
        if (node.cls == OpClass::Copy || !producesValue(node.cls))
            continue;
        remoteClustersOf(ddg, cluster_of, n, remote);
        if (remote.empty())
            continue;

        info.communicated[n] = true;
        info.producers.push_back(n);
        info.targetClusters.push_back(remote);
    }
    return info;
}

std::vector<NodeId>
CommInfo::update(const Ddg &ddg,
                 const std::vector<ClusterId> &cluster_of,
                 std::vector<NodeId> touched)
{
    communicated.resize(ddg.numNodeSlots(), false);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());

    std::vector<std::vector<int>> fresh(touched.size());
    for (std::size_t i = 0; i < touched.size(); ++i)
        remoteClustersOf(ddg, cluster_of, touched[i], fresh[i]);

    // One merge pass rebuilds the NodeId-ordered parallel arrays:
    // untouched entries are moved over, touched ones are replaced by
    // their recomputed remote sets (dropped when empty).
    std::vector<NodeId> changed;
    std::vector<NodeId> new_producers;
    std::vector<std::vector<int>> new_targets;
    new_producers.reserve(producers.size() + touched.size());
    new_targets.reserve(producers.size() + touched.size());

    std::size_t pi = 0, ti = 0;
    while (pi < producers.size() || ti < touched.size()) {
        if (ti == touched.size() ||
            (pi < producers.size() && producers[pi] < touched[ti])) {
            new_producers.push_back(producers[pi]);
            new_targets.push_back(std::move(targetClusters[pi]));
            ++pi;
            continue;
        }
        const NodeId t = touched[ti];
        std::vector<int> &now = fresh[ti];
        const bool comm_now = !now.empty();
        bool differs;
        if (pi < producers.size() && producers[pi] == t) {
            differs = !comm_now || targetClusters[pi] != now;
            ++pi;
        } else {
            differs = comm_now;
        }
        if (comm_now) {
            new_producers.push_back(t);
            new_targets.push_back(std::move(now));
        }
        communicated[t] = comm_now;
        if (differs)
            changed.push_back(t);
        ++ti;
    }
    producers = std::move(new_producers);
    targetClusters = std::move(new_targets);
    return changed;
}

int
busCapacity(const MachineConfig &mach, int ii)
{
    if (mach.isUnified())
        return 0;
    return (ii / mach.busLatency()) * mach.numBuses();
}

int
extraComs(int nof_coms, const MachineConfig &mach, int ii)
{
    return std::max(0, nof_coms - busCapacity(mach, ii));
}

int
minBusIi(int nof_coms, const MachineConfig &mach)
{
    if (nof_coms == 0 || mach.isUnified())
        return 1;
    cv_assert(mach.numBuses() > 0, "clustered machine without buses");
    const int per_bus =
        (nof_coms + mach.numBuses() - 1) / mach.numBuses();
    return per_bus * mach.busLatency();
}

} // namespace cvliw
