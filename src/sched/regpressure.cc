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

/**
 * Add one live range [def, last_use) to a cluster's phase counts in
 * O(ii): every whole II of the range adds one to each phase, then the
 * remaining cycles are walked from def's phase. Counts are 64-bit:
 * a range clamped at INT_MAX is ~2^31 cycles long, so at II 2 three
 * of them already sum past INT_MAX in one phase.
 */
void
addRange(std::vector<long long> &phases, int def, int last_use, int ii)
{
    const long long len = static_cast<long long>(last_use) - def;
    if (len >= ii) {
        for (long long &count : phases)
            count += len / ii;
    }
    int phase = ((def % ii) + ii) % ii;
    for (long long left = len % ii; left > 0; --left) {
        ++phases[phase];
        if (++phase == ii)
            phase = 0;
    }
}

} // namespace

std::vector<int>
computeMaxLive(const Ddg &ddg, const MachineConfig &mach,
               const Partition &part, const std::vector<int> &start,
               int ii)
{
    const int clusters = mach.numClusters();
    std::vector<std::vector<long long>> press(
        clusters, std::vector<long long>(ii, 0));

    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        if (!producesValue(node.cls))
            continue;
        cv_assert(start[v] >= 0 || ddg.outEdges(v).empty(),
                  "unscheduled producer n", v);

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
        max_live[c] = static_cast<int>(std::min<long long>(
            *std::max_element(press[c].begin(), press[c].end()),
            std::numeric_limits<int>::max()));
    }
    return max_live;
}

} // namespace cvliw
