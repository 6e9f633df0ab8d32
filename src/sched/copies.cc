#include "sched/copies.hh"

#include "sched/comms.hh"
#include "support/logging.hh"

namespace cvliw
{

CopyInsertion
insertCopies(Ddg &ddg, Partition &part, const MachineConfig &mach)
{
    CopyInsertion result;
    if (mach.isUnified())
        return result;

    const CommInfo comms = findCommunications(ddg, part.vec());
    for (NodeId p : comms.producers) {
        const NodeId copy = ddg.addNode(OpClass::Copy);
        part.assign(copy, part.clusterOf(p));
        ddg.addEdge(p, copy, EdgeKind::RegFlow, 0);

        // Rewire every cross-cluster consumer to read the broadcast.
        for (EdgeId eid : ddg.outEdges(p)) {
            const DdgEdge e = ddg.edge(eid);
            if (e.dst == copy || e.kind != EdgeKind::RegFlow)
                continue;
            if (part.clusterOf(e.dst) == part.clusterOf(p))
                continue;
            ddg.removeEdge(eid);
            ddg.addEdge(copy, e.dst, EdgeKind::RegFlow, e.distance);
        }

        result.copies.push_back(copy);
    }
    return result;
}

} // namespace cvliw
