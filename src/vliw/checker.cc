#include "vliw/checker.hh"

#include <map>

#include "sched/regpressure.hh"
#include "support/logging.hh"
#include "support/strutil.hh"

namespace cvliw
{

std::vector<std::string>
checkSchedule(const Ddg &ddg, const MachineConfig &mach,
              const Partition &part, const Schedule &sched,
              const CheckOptions &opts)
{
    std::vector<std::string> errs;
    const int ii = sched.ii;
    auto phase = [ii](int t) { return ((t % ii) + ii) % ii; };
    // Labels are string_views into the graph's arena; error text wants
    // owned strings it can concatenate.
    auto lbl = [&ddg](NodeId v) { return std::string(ddg.label(v)); };

    if (ii < 1) {
        errs.push_back("II < 1");
        return errs;
    }

    // --- Every live node is scheduled. --------------------------------
    for (NodeId v : ddg.nodes()) {
        if (v >= static_cast<NodeId>(sched.start.size()) ||
            sched.start[v] < 0) {
            errs.push_back("unscheduled node " + lbl(v));
        }
    }
    if (!errs.empty())
        return errs;

    // --- Dependence timing. --------------------------------------------
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        int lat = ddg.edgeLatency(eid, mach);
        if (opts.zeroBusLatencyForLength &&
            e.kind == EdgeKind::RegFlow &&
            ddg.node(e.src).cls == OpClass::Copy) {
            lat = 0;
        }
        // 64-bit: ii * distance can exceed an int.
        const long long lhs =
            sched.start[e.dst] + static_cast<long long>(ii) * e.distance;
        const long long rhs =
            static_cast<long long>(sched.start[e.src]) + lat;
        if (lhs < rhs) {
            errs.push_back(
                "dependence violated: " + lbl(e.src) +
                " -> " + lbl(e.dst) + " (start " +
                std::to_string(sched.start[e.src]) + " lat " +
                std::to_string(lat) + " dist " +
                std::to_string(e.distance) + " consumer at " +
                std::to_string(sched.start[e.dst]) + ")");
        }
    }

    // --- Modulo resource constraints. ----------------------------------
    // ops[(kind, cluster, phase)] -> count
    std::map<std::tuple<int, int, int>, int> ops;
    // bus[(bus, phase)] -> user label
    std::map<std::pair<int, int>, NodeId> bus;
    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        if (node.cls == OpClass::Copy) {
            const int b = sched.busOf[v];
            if (b < 0 || b >= mach.numBuses()) {
                errs.push_back("copy " + lbl(v) +
                               " has no bus assignment");
                continue;
            }
            const int ph = phase(sched.start[v]);
            if (ph % mach.busLatency() != 0 ||
                ph + mach.busLatency() > ii) {
                errs.push_back("copy " + lbl(v) +
                               " starts at unaligned bus phase " +
                               std::to_string(ph));
            }
            for (int k = 0; k < mach.busLatency(); ++k) {
                const auto key =
                    std::make_pair(b, phase(sched.start[v] + k));
                auto [it, fresh] = bus.emplace(key, v);
                if (!fresh) {
                    errs.push_back(
                        "bus " + std::to_string(b) + " phase " +
                        std::to_string(key.second) +
                        " double-booked by " + lbl(v) + " and " +
                        lbl(it->second));
                }
            }
        } else {
            const auto kind =
                static_cast<int>(mach.resourceFor(node.cls));
            ++ops[{kind, part.clusterOf(v), phase(sched.start[v])}];
        }
    }
    for (const auto &[key, count] : ops) {
        const auto kind = static_cast<ResourceKind>(std::get<0>(key));
        if (count > mach.available(kind)) {
            errs.push_back(
                std::string("overbooked ") + toString(kind) +
                " in cluster " + std::to_string(std::get<1>(key)) +
                " phase " + std::to_string(std::get<2>(key)) + ": " +
                std::to_string(count) + " > " +
                std::to_string(mach.available(kind)));
        }
    }

    // --- Cluster visibility of register reads. -------------------------
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        if (e.kind != EdgeKind::RegFlow)
            continue;
        const DdgNode &src = ddg.node(e.src);
        const DdgNode &dst = ddg.node(e.dst);
        if (dst.cls == OpClass::Copy) {
            // A copy reads the register in its own cluster.
            if (part.clusterOf(e.src) != part.clusterOf(e.dst)) {
                errs.push_back("copy " + lbl(e.dst) +
                               " reads remote register of " +
                               lbl(e.src));
            }
        } else if (src.cls != OpClass::Copy &&
                   part.clusterOf(e.src) != part.clusterOf(e.dst)) {
            errs.push_back(lbl(e.dst) + " in cluster " +
                           std::to_string(part.clusterOf(e.dst)) +
                           " reads " + lbl(e.src) + " from cluster " +
                           std::to_string(part.clusterOf(e.src)) +
                           " without a copy");
        }
    }

    // --- Copies have exactly one operand. ------------------------------
    for (NodeId v : ddg.nodes()) {
        if (ddg.node(v).cls != OpClass::Copy)
            continue;
        if (ddg.flowPreds(v).size() != 1) {
            errs.push_back("copy " + lbl(v) + " has " +
                           std::to_string(ddg.flowPreds(v).size()) +
                           " operands");
        }
    }

    // --- Register pressure. ----------------------------------------------
    const auto max_live =
        computeMaxLive(ddg, mach, part, sched.start, ii);
    for (int c = 0; c < mach.numClusters(); ++c) {
        if (max_live[c] > mach.regsPerCluster()) {
            errs.push_back("cluster " + std::to_string(c) +
                           " MaxLive " + std::to_string(max_live[c]) +
                           " exceeds " +
                           std::to_string(mach.regsPerCluster()) +
                           " registers");
        }
    }

    return errs;
}

} // namespace cvliw
