#include "core/spill.hh"

#include <algorithm>
#include <tuple>

#include "support/logging.hh"

namespace cvliw
{

bool
spillOneValue(Ddg &ddg, Partition &part, const MachineConfig &mach,
              const Schedule &failed)
{
    const int regs = mach.regsPerCluster();
    const int ii = failed.ii;

    // Worst-overflow cluster first.
    std::vector<int> clusters_by_overflow;
    for (int c = 0;
         c < static_cast<int>(failed.maxLive.size()); ++c) {
        if (failed.maxLive[c] > regs)
            clusters_by_overflow.push_back(c);
    }
    std::sort(clusters_by_overflow.begin(),
              clusters_by_overflow.end(), [&](int a, int b) {
                  return failed.maxLive[b] < failed.maxLive[a];
              });
    if (clusters_by_overflow.empty())
        return false;

    // A reload pays store completion + load latency before the
    // consumer can read; spilling shorter lifetimes cannot win.
    const int min_gain = mach.latency(OpClass::Store) +
                         mach.latency(OpClass::Load);

    for (const int cluster : clusters_by_overflow) {
        // Victim: the value instance with the longest register
        // lifetime in this cluster. Both locally produced values and
        // bus-delivered (copy) instances qualify: a broadcast that
        // arrives long before its last read holds a register the
        // whole time.
        NodeId victim = invalidNode;
        long long best_span = min_gain;
        long long victim_def = 0;
        for (NodeId v : ddg.nodes()) {
            const DdgNode &node = ddg.node(v);
            if (!producesValue(node.cls) || node.isSpill)
                continue;
            const bool is_copy = node.cls == OpClass::Copy;
            if (!is_copy && part.clusterOf(v) != cluster)
                continue;
            // One spill per (value, cluster): a second store would
            // not shorten anything the first did not.
            bool already = false;
            for (EdgeId eid : ddg.outEdges(v)) {
                const DdgEdge &e = ddg.edge(eid);
                already |= e.kind == EdgeKind::Spill &&
                           part.clusterOf(e.dst) == cluster;
            }
            // (The spill store hangs off v via RegFlow; check those
            // too.)
            for (NodeId w : ddg.flowSuccs(v)) {
                already |= ddg.node(w).isSpill &&
                           part.clusterOf(w) == cluster;
            }
            if (already)
                continue;

            const long long def =
                failed.start[v] +
                (is_copy ? mach.busLatency()
                         : mach.latency(node.cls));
            long long last = def;
            int far_consumers = 0;
            for (EdgeId eid : ddg.outEdges(v)) {
                const DdgEdge &e = ddg.edge(eid);
                if (e.kind != EdgeKind::RegFlow)
                    continue;
                if (part.clusterOf(e.dst) != cluster)
                    continue; // other clusters have other instances
                const long long use =
                    failed.start[e.dst] +
                    static_cast<long long>(ii) * e.distance;
                last = std::max(last, use);
                far_consumers += (use - def >= min_gain);
            }
            if (far_consumers == 0)
                continue;
            if (last - def > best_span) {
                best_span = last - def;
                victim = v;
                victim_def = def;
            }
        }
        if (victim == invalidNode)
            continue;

        // Insert store + reload and rewire the distant consumers.
        const NodeId victim_sem = ddg.node(victim).semanticId;
        const NodeId st = ddg.addNode(OpClass::Store);
        ddg.node(st).isSpill = true;
        ddg.node(st).semanticId = victim_sem;
        const NodeId ld = ddg.addNode(OpClass::Load);
        ddg.node(ld).isSpill = true;
        ddg.node(ld).semanticId = victim_sem;
        part.assign(st, cluster);
        part.assign(ld, cluster);
        ddg.addEdge(victim, st, EdgeKind::RegFlow, 0);
        ddg.addEdge(st, ld, EdgeKind::Spill, 0);

        for (EdgeId eid : ddg.outEdges(victim)) {
            const DdgEdge e = ddg.edge(eid);
            if (e.kind != EdgeKind::RegFlow || e.dst == st)
                continue;
            if (part.clusterOf(e.dst) != cluster)
                continue;
            const long long use =
                failed.start[e.dst] +
                static_cast<long long>(ii) * e.distance;
            if (use - victim_def < min_gain)
                continue; // near consumer keeps the register
            ddg.removeEdge(eid);
            ddg.addEdge(ld, e.dst, EdgeKind::RegFlow, e.distance);
        }
        return true;
    }
    return false;
}

} // namespace cvliw
