#include "vliw/checker.hh"

#include "sched/regpressure.hh"
#include "support/logging.hh"
#include "support/strutil.hh"

namespace cvliw
{

std::vector<std::string>
checkSchedule(const Ddg &ddg, const MachineConfig &mach,
              const Partition &part, const Schedule &sched,
              const SchedulerOptions &opts)
{
    std::vector<std::string> errs;
    const int ii = sched.ii;
    auto phase = [ii](int t) { return ((t % ii) + ii) % ii; };
    auto name = [](NodeId v) { return "n" + std::to_string(v); };

    if (ii < 1) {
        errs.push_back("II < 1");
        return errs;
    }

    // --- Every live node is scheduled on a cluster of the machine,
    // and every copy has a bus entry: the checks below index by them.
    for (NodeId v : ddg.nodes()) {
        if (v >= static_cast<NodeId>(sched.start.size()) ||
            sched.start[v] < 0) {
            errs.push_back("unscheduled node " + name(v));
        }
        if (!part.isAssigned(v)) {
            errs.push_back(name(v) + " is assigned to no cluster");
        } else if (part.clusterOf(v) >= mach.numClusters()) {
            errs.push_back(name(v) + " is in cluster " +
                           std::to_string(part.clusterOf(v)) +
                           " of a " + std::to_string(mach.numClusters()) +
                           "-cluster machine");
        }
        if (ddg.node(v).cls == OpClass::Copy &&
            v >= static_cast<NodeId>(sched.busOf.size())) {
            errs.push_back("copy " + name(v) + " has no bus entry");
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
                "dependence violated: " + name(e.src) +
                " -> " + name(e.dst) + " (start " +
                std::to_string(sched.start[e.src]) + " lat " +
                std::to_string(lat) + " dist " +
                std::to_string(e.distance) + " consumer at " +
                std::to_string(sched.start[e.dst]) + ")");
        }
    }

    // --- Modulo resource constraints. ----------------------------------
    // Reservations per (kind, cluster, phase) and the first user of
    // each (bus, phase), in flat kind-major and bus-major arrays.
    constexpr int num_kinds =
        static_cast<int>(ResourceKind::NumResourceKinds);
    const int clusters = mach.numClusters();
    auto op_slot = [&](int kind, int cluster, int ph) {
        return (static_cast<std::size_t>(kind) * clusters + cluster) *
                   static_cast<std::size_t>(ii) +
               static_cast<std::size_t>(ph);
    };
    std::vector<int> ops(static_cast<std::size_t>(num_kinds) * clusters *
                             static_cast<std::size_t>(ii),
                         0);
    std::vector<NodeId> bus(static_cast<std::size_t>(mach.numBuses()) *
                                static_cast<std::size_t>(ii),
                            invalidNode);
    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        if (node.cls == OpClass::Copy) {
            const int b = sched.busOf[v];
            if (b < 0 || b >= mach.numBuses()) {
                errs.push_back("copy " + name(v) +
                               " has no bus assignment");
                continue;
            }
            const int ph = phase(sched.start[v]);
            if (ph % mach.busLatency() != 0 ||
                ph + mach.busLatency() > ii) {
                errs.push_back("copy " + name(v) +
                               " starts at unaligned bus phase " +
                               std::to_string(ph));
            }
            for (int k = 0; k < mach.busLatency(); ++k) {
                const int bus_ph = phase(sched.start[v] + k);
                NodeId &user = bus[static_cast<std::size_t>(b) *
                                       static_cast<std::size_t>(ii) +
                                   static_cast<std::size_t>(bus_ph)];
                if (user == invalidNode) {
                    user = v;
                    continue;
                }
                errs.push_back("bus " + std::to_string(b) + " phase " +
                               std::to_string(bus_ph) +
                               " double-booked by " + name(v) + " and " +
                               name(user));
            }
        } else {
            const auto kind =
                static_cast<int>(mach.resourceFor(node.cls));
            ++ops[op_slot(kind, part.clusterOf(v),
                          phase(sched.start[v]))];
        }
    }
    for (int k = 0; k < num_kinds; ++k) {
        const auto kind = static_cast<ResourceKind>(k);
        for (int c = 0; c < clusters; ++c) {
            for (int ph = 0; ph < ii; ++ph) {
                const int count = ops[op_slot(k, c, ph)];
                if (count <= mach.available(kind))
                    continue;
                errs.push_back(
                    std::string("overbooked ") + toString(kind) +
                    " in cluster " + std::to_string(c) + " phase " +
                    std::to_string(ph) + ": " + std::to_string(count) +
                    " > " + std::to_string(mach.available(kind)));
            }
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
                errs.push_back("copy " + name(e.dst) +
                               " reads remote register of " +
                               name(e.src));
            }
        } else if (src.cls != OpClass::Copy &&
                   part.clusterOf(e.src) != part.clusterOf(e.dst)) {
            errs.push_back(name(e.dst) + " in cluster " +
                           std::to_string(part.clusterOf(e.dst)) +
                           " reads " + name(e.src) + " from cluster " +
                           std::to_string(part.clusterOf(e.src)) +
                           " without a copy");
        }
    }

    // --- Copies have exactly one operand. ------------------------------
    for (NodeId v : ddg.nodes()) {
        if (ddg.node(v).cls != OpClass::Copy)
            continue;
        if (ddg.flowPreds(v).size() != 1) {
            errs.push_back("copy " + name(v) + " has " +
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
