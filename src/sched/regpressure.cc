#include "sched/regpressure.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

/**
 * Last use of a value read at cycle @p consumer_start, @p distance
 * iterations later: computed in 64 bits (ii * distance can exceed an
 * int) and clamped into the int range of the live ranges.
 */
int
useCycle(int consumer_start, int ii, int distance)
{
    return static_cast<int>(std::min<long long>(
        static_cast<long long>(consumer_start) +
            static_cast<long long>(ii) * distance,
        std::numeric_limits<int>::max()));
}

/** Add one live range [def, last_use) to a cluster's phase counts. */
void
addRange(std::vector<int> &phases, int def, int last_use, int ii)
{
    for (int t = def; t < last_use; ++t)
        ++phases[((t % ii) + ii) % ii];
}

} // namespace

std::vector<int>
computeMaxLive(const Ddg &ddg, const MachineConfig &mach,
               const Partition &part, const std::vector<int> &start,
               int ii)
{
    const int clusters = mach.numClusters();
    std::vector<std::vector<int>> press(clusters,
                                        std::vector<int>(ii, 0));

    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        if (!producesValue(node.cls))
            continue;
        cv_assert(start[v] >= 0 || ddg.outEdges(v).empty(),
                  "unscheduled producer ", ddg.label(v));

        if (node.cls == OpClass::Copy) {
            // The broadcast creates one register instance per remote
            // cluster that consumes it.
            const int def = start[v] + mach.busLatency();
            std::vector<int> last(clusters, -1);
            for (EdgeId eid : ddg.outEdgesRaw(v)) {
                const DdgEdge &e = ddg.edge(eid);
                if (!e.alive || e.kind != EdgeKind::RegFlow)
                    continue;
                const int c = part.clusterOf(e.dst);
                last[c] = std::max(last[c],
                                   useCycle(start[e.dst], ii, e.distance));
            }
            for (int c = 0; c < clusters; ++c) {
                if (last[c] >= def)
                    addRange(press[c], def, last[c], ii);
            }
        } else {
            // Local value: live in the producer's cluster until the
            // last same-cluster read (remote reads go via the copy).
            const int c = part.clusterOf(v);
            const int def = start[v] + mach.latency(node.cls);
            int last = -1;
            for (EdgeId eid : ddg.outEdgesRaw(v)) {
                const DdgEdge &e = ddg.edge(eid);
                if (!e.alive || e.kind != EdgeKind::RegFlow)
                    continue;
                if (part.clusterOf(e.dst) != c)
                    continue;
                last = std::max(last,
                                useCycle(start[e.dst], ii, e.distance));
            }
            if (last >= def)
                addRange(press[c], def, last, ii);
        }
    }

    std::vector<int> max_live(clusters, 0);
    for (int c = 0; c < clusters; ++c) {
        for (int t = 0; t < ii; ++t)
            max_live[c] = std::max(max_live[c], press[c][t]);
    }
    return max_live;
}

} // namespace cvliw
