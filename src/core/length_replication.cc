#include "core/length_replication.hh"

#include <algorithm>

#include "sched/copies.hh"
#include "support/logging.hh"

namespace cvliw
{

namespace
{

/**
 * Find a (producer, cluster) pair whose copy edge is tight on the
 * critical path of the scheduled graph, i.e. removing the bus
 * latency there could shorten the schedule.
 */
bool
findCriticalCopy(const Ddg &ddg, const MachineConfig &mach,
                 const Partition &part, const Schedule &sched,
                 NodeId &producer, int &cluster)
{
    // Mark nodes whose completion realizes the schedule length, then
    // walk tight distance-0 edges backwards.
    std::vector<bool> critical(ddg.numNodeSlots(), false);
    std::vector<NodeId> worklist;
    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        const int lat = node.cls == OpClass::Copy
                            ? mach.busLatency()
                            : mach.latency(node.cls);
        if (sched.start[v] + lat == sched.length) {
            critical[v] = true;
            worklist.push_back(v);
        }
    }
    while (!worklist.empty()) {
        const NodeId v = worklist.back();
        worklist.pop_back();
        for (EdgeId eid : ddg.inEdges(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.distance != 0 || critical[e.src])
                continue;
            const int lat = ddg.edgeLatency(eid, mach);
            if (sched.start[e.src] + lat != sched.start[v])
                continue; // slack absorbs the latency
            critical[e.src] = true;
            worklist.push_back(e.src);
        }
    }

    // A critical copy with a critical consumer: replicate the copied
    // value into that consumer's cluster.
    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        if (node.cls != OpClass::Copy || !critical[v])
            continue;
        const auto preds = ddg.flowPreds(v);
        cv_assert(preds.size() == 1, "copy with fan-in != 1");
        const NodeId pred = preds.front();
        for (EdgeId eid : ddg.outEdges(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.kind != EdgeKind::RegFlow || e.distance != 0)
                continue;
            if (!critical[e.dst])
                continue;
            const int lat = ddg.edgeLatency(eid, mach);
            if (sched.start[v] + lat != sched.start[e.dst])
                continue;
            producer = pred;
            cluster = part.clusterOf(e.dst);
            return true;
        }
    }
    return false;
}

} // namespace

void
reduceScheduleLength(CompileResult &result, Ddg &final_ddg,
                     const Ddg &pre_copy, const Partition &pre_copy_part,
                     const MachineConfig &mach,
                     const SchedulerOptions &sched_opts)
{
    constexpr int max_attempts = 4;

    Ddg best_pre = pre_copy;
    Partition best_part = pre_copy_part;
    SubgraphScratch sg_scratch; // reused across the trial attempts

    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        NodeId producer = invalidNode;
        int cluster = -1;
        if (!findCriticalCopy(final_ddg, mach, result.partition,
                              result.schedule, producer, cluster)) {
            return;
        }

        // The producer id is valid in the pre-copy graph as well:
        // copy insertion only appends nodes, and the graph holds no
        // spill code (see the header).
        Ddg trial = best_pre;
        Partition trial_part = best_part;
        ReplicationStats rstats;
        if (!replicateIntoCluster(trial, trial_part, mach,
                                  result.ii, producer, cluster,
                                  &rstats, &sg_scratch)) {
            return;
        }

        Ddg scheduled = trial;
        Partition sched_part = trial_part;
        const int coms = static_cast<int>(
            insertCopies(scheduled, sched_part, mach).copies.size());
        const ScheduleAttempt a = scheduleAtIi(
            scheduled, mach, sched_part, result.ii, sched_opts);
        if (!a.ok || a.sched.length >= result.schedule.length)
            return; // no gain: keep the current result

        result.lengthSaved +=
            result.schedule.length - a.sched.length;
        result.schedule = a.sched;
        final_ddg = std::move(scheduled);
        result.partition = std::move(sched_part);
        result.comsFinal = coms;
        result.repl.replicasAdded += rstats.replicasAdded;
        for (std::size_t i = 0; i < rstats.replicasByCat.size(); ++i)
            result.repl.replicasByCat[i] += rstats.replicasByCat[i];
        best_pre = std::move(trial);
        best_part = std::move(trial_part);
    }
}

} // namespace cvliw
