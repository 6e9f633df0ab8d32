#include "sched/comms.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

/**
 * Does @p n's value communicate, i.e. does a live register-flow
 * consumer outside @p n's cluster read it? False for dead nodes,
 * copies and nodes that produce no value. The single source of the
 * per-node communication rule, shared by the from-scratch scan and
 * the incremental patch so they can never disagree.
 */
bool
communicates(const Ddg &ddg, const std::vector<ClusterId> &cluster_of,
             NodeId n)
{
    const DdgNode &node = ddg.node(n);
    if (!node.alive || node.cls == OpClass::Copy ||
        !producesValue(node.cls)) {
        return false;
    }
    cv_assert(n < static_cast<NodeId>(cluster_of.size()) &&
              cluster_of[n] >= 0,
              "node n", n, " has no cluster");

    for (EdgeId eid : ddg.outEdgesRaw(n)) {
        const DdgEdge &e = ddg.edge(eid);
        if (!e.alive || e.kind != EdgeKind::RegFlow)
            continue;
        // A consumer that is a copy of this very value does not
        // count; copies are inserted after this analysis runs.
        if (ddg.node(e.dst).cls == OpClass::Copy)
            continue;
        if (cluster_of[e.dst] != cluster_of[n])
            return true;
    }
    return false;
}

} // namespace

CommInfo
findCommunications(const Ddg &ddg,
                   const std::vector<ClusterId> &cluster_of)
{
    CommInfo info;
    info.communicated.assign(ddg.numNodeSlots(), false);
    for (NodeId n : ddg.nodes()) {
        if (communicates(ddg, cluster_of, n)) {
            info.communicated[n] = true;
            info.producers.push_back(n);
        }
    }
    return info;
}

void
CommInfo::update(const Ddg &ddg,
                 const std::vector<ClusterId> &cluster_of,
                 const std::vector<NodeId> &touched)
{
    communicated.resize(ddg.numNodeSlots(), false);
    for (NodeId n : touched)
        communicated[n] = communicates(ddg, cluster_of, n);
    producers.clear();
    for (std::size_t n = 0; n < communicated.size(); ++n) {
        if (communicated[n])
            producers.push_back(static_cast<NodeId>(n));
    }
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
