#include "partition/edge_weights.hh"

#include <algorithm>

namespace cvliw
{

std::vector<long long>
computeEdgeWeights(const Ddg &ddg, const MachineConfig &mach,
                   const LoopAnalysis &analysis)
{
    const NodeTimes &times = analysis.times;
    const std::vector<int> &scc = analysis.scc;
    const int bus_lat = std::max(1, mach.busLatency());

    std::vector<long long> w(ddg.numEdgeSlots(), 0);
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        if (e.kind != EdgeKind::RegFlow)
            continue; // memory edges never communicate

        long long weight = 1;

        // Critical-path impact: slack below bus latency means the
        // schedule of one iteration grows by the shortfall.
        if (e.distance == 0) {
            const int lat = ddg.edgeLatency(eid, mach);
            const int slack =
                times.alap[e.dst] - (times.asap[e.src] + lat);
            weight += 4LL * std::max(0, bus_lat - slack);
        }

        // Recurrence impact: the added latency raises the cycle's
        // latency sum, and thereby RecMII. Dominant term.
        if (scc[e.src] == scc[e.dst])
            weight += 64LL * bus_lat;

        w[eid] = weight;
    }
    return w;
}

} // namespace cvliw
