#include "core/replicator.hh"

#include <algorithm>
#include <tuple>

#include "core/removable.hh"
#include "core/weights.hh"
#include "sched/comms.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace cvliw
{

namespace
{

/** Track a replica in the Figure-10 category counters. */
void
countReplica(ReplicationStats *stats, OpClass cls)
{
    if (!stats)
        return;
    ++stats->replicasAdded;
    switch (categoryOf(cls)) {
      case OpCategory::Mem: ++stats->replicasByCat[0]; break;
      case OpCategory::Int: ++stats->replicasByCat[1]; break;
      case OpCategory::Fp:  ++stats->replicasByCat[2]; break;
      default: break;
    }
}

/**
 * Create the replicas of @p sg, wire their operands, and rewire the
 * consumers of sg.com in the subgraph's target clusters to the local
 * instances. When @p touched is non-null, every node whose consumers
 * or in-edges changed (replicas, their operand producers, rewired
 * consumers and com itself) is appended to it, so the caller can
 * patch its CommInfo incrementally instead of rescanning the graph.
 */
void
applySubgraph(Ddg &ddg, Partition &part, ReplicaIndex &index,
              const ReplicationSubgraph &sg,
              const std::vector<bool> &communicated,
              ReplicationStats *stats,
              std::vector<NodeId> *touched = nullptr)
{
    auto touch = [&](NodeId n) {
        if (touched)
            touched->push_back(n);
    };
    // Phase 1: create all replica nodes (cycles in the subgraph make
    // a create-then-wire split necessary).
    for (const auto &[v, c] : sg.required) {
        const NodeId r = ddg.addReplica(v);
        part.assign(r, c);
        index.addInstance(ddg.node(v).semanticId, c, r);
        countReplica(stats, ddg.node(v).cls);
        touch(r);
        touch(v);
    }

    // Phase 2: wire operands of every new replica.
    for (const auto &[v, c] : sg.required) {
        const NodeId r = index.instance(ddg.node(v).semanticId, c);
        cv_assert(r != invalidNode, "replica vanished");
        for (EdgeId eid : ddg.inEdges(v)) {
            const DdgEdge e = ddg.edge(eid);
            if (e.kind == EdgeKind::Memory) {
                // Keep memory ordering for the replica too.
                ddg.addEdge(e.src, r, EdgeKind::Memory, e.distance,
                            e.memLatency);
                continue;
            }
            if (e.kind == EdgeKind::Spill) {
                // A replicated reload reads the same centralized
                // spill slot.
                ddg.addEdge(e.src, r, EdgeKind::Spill, e.distance);
                continue;
            }
            const NodeId p = e.src;
            const NodeId local = index.instance(ddg.node(p).semanticId, c);
            if (local != invalidNode) {
                ddg.addEdge(local, r, EdgeKind::RegFlow, e.distance);
                touch(local);
            } else if (communicated[p]) {
                // Delivered by the existing broadcast of p.
                ddg.addEdge(p, r, EdgeKind::RegFlow, e.distance);
                touch(p);
            } else {
                cv_panic("operand n", p, " unavailable in cluster ", c,
                         " while replicating n", sg.com);
            }
        }
        // Replicated loads/stores inherit outgoing memory ordering
        // constraints as well.
        for (EdgeId eid : ddg.outEdges(v)) {
            const DdgEdge e = ddg.edge(eid);
            if (e.kind == EdgeKind::Memory) {
                ddg.addEdge(r, e.dst, EdgeKind::Memory, e.distance,
                            e.memLatency);
            }
        }
    }

    // Phase 3: rewire remote consumers of com to the local instances.
    const int home = part.clusterOf(sg.com);
    for (EdgeId eid : ddg.outEdges(sg.com)) {
        const DdgEdge e = ddg.edge(eid);
        if (e.kind != EdgeKind::RegFlow)
            continue;
        const int c = part.clusterOf(e.dst);
        if (c == home)
            continue;
        if (!std::binary_search(sg.targetClusters.begin(),
                                sg.targetClusters.end(), c)) {
            continue; // section 5.1 variant: only chosen clusters
        }
        const NodeId local =
            index.instance(ddg.node(sg.com).semanticId, c);
        cv_assert(local != invalidNode,
                  "no instance of com in target cluster ", c);
        ddg.removeEdge(eid);
        ddg.addEdge(local, e.dst, EdgeKind::RegFlow, e.distance);
        touch(local);
        touch(e.dst);
    }
    touch(sg.com);
}

/**
 * Dead-code sweep restricted to the ancestor cone of @p com. Exact
 * replacement for the global sweep *when the rest of the graph holds
 * no dead code* (i.e. from the second round of a replication pass
 * on): a round only rewires com's consumers, so only com's upward
 * cone can lose liveness - every flow consumer of a cone node is
 * either in the cone itself or untouched and alive. All buffers are
 * caller-owned and reused across rounds.
 */
int
removeDeadCodeInCone(Ddg &ddg, const Partition &part,
                     ReplicaIndex &index, NodeId com,
                     std::vector<NodeId> *touched,
                     std::vector<char> &in_cone,
                     std::vector<NodeId> &cone, std::vector<char> &live,
                     std::vector<NodeId> &worklist)
{
    const int slots = ddg.numNodeSlots();
    in_cone.assign(slots, 0);
    cone.clear();
    auto enter = [&](NodeId n) {
        if (!in_cone[n]) {
            in_cone[n] = 1;
            cone.push_back(n);
        }
    };
    enter(com);
    for (std::size_t i = 0; i < cone.size(); ++i) {
        for (NodeId p : ddg.flowPreds(cone[i]))
            enter(p);
    }

    // Mark: roots are cone stores/live-outs and cone nodes read from
    // outside the cone (everything outside is alive by assumption).
    live.assign(slots, 0);
    worklist.clear();
    for (NodeId v : cone) {
        const DdgNode &node = ddg.node(v);
        bool root = node.cls == OpClass::Store || node.liveOut;
        if (!root) {
            for (NodeId w : ddg.flowSuccs(v)) {
                if (!in_cone[w]) {
                    root = true;
                    break;
                }
            }
        }
        if (root) {
            live[v] = 1;
            worklist.push_back(v);
        }
    }
    while (!worklist.empty()) {
        const NodeId v = worklist.back();
        worklist.pop_back();
        for (NodeId p : ddg.flowPreds(v)) {
            if (!live[p]) {
                live[p] = 1;
                worklist.push_back(p);
            }
        }
    }

    // Sweep the cone.
    int removed = 0;
    for (NodeId n : cone) {
        if (live[n])
            continue;
        if (touched) {
            touched->push_back(n);
            for (NodeId p : ddg.flowPreds(n))
                touched->push_back(p);
        }
        index.removeInstance(ddg.node(n).semanticId,
                             part.clusterOf(n));
        ddg.removeNode(n);
        ++removed;
    }
    return removed;
}

} // namespace

int
removeDeadCode(Ddg &ddg, const Partition &part, ReplicaIndex &index,
               std::vector<NodeId> *touched)
{
    // Mark: walk register-flow edges backwards from the roots
    // (stores and live-out values).
    std::vector<bool> live(ddg.numNodeSlots(), false);
    std::vector<NodeId> worklist;
    for (NodeId n : ddg.nodes()) {
        const DdgNode &node = ddg.node(n);
        if (node.cls == OpClass::Store || node.liveOut) {
            live[n] = true;
            worklist.push_back(n);
        }
    }
    while (!worklist.empty()) {
        const NodeId v = worklist.back();
        worklist.pop_back();
        for (NodeId p : ddg.flowPreds(v)) {
            if (!live[p]) {
                live[p] = true;
                worklist.push_back(p);
            }
        }
    }

    // Sweep.
    int removed = 0;
    for (NodeId n : ddg.nodes()) {
        if (live[n])
            continue;
        if (touched) {
            // The dead node and the producers losing a consumer all
            // change communication status; capture the preds before
            // the edges are tombstoned.
            touched->push_back(n);
            for (NodeId p : ddg.flowPreds(n))
                touched->push_back(p);
        }
        index.removeInstance(ddg.node(n).semanticId,
                             part.clusterOf(n));
        ddg.removeNode(n);
        ++removed;
    }
    return removed;
}

bool
reduceCommunications(Ddg &ddg, Partition &part,
                     const MachineConfig &mach, int ii,
                     ReplicationStats *stats, ReplicationMode mode,
                     const CoarseningHierarchy *hier,
                     SubgraphScratch *scratch)
{
    if (mach.isUnified())
        return true;

    ReplicaIndex index(ddg, part);

    // Communications are found once and patched after each round
    // (CommInfo::update); the candidate subgraphs and their weights
    // are recomputed every round, as section 3.4 prescribes.
    CommInfo comms = findCommunications(ddg, part.vec());
    if (stats)
        stats->comsInitial = comms.count();

    // Section 5.2: force com's whole level-1 macro-node into its
    // subgraph.
    const bool macro_mode = mode == ReplicationMode::MacroNode &&
                            hier && hier->numLevels() > 1;

    // One walk scratch for (at least) the whole pass: every round
    // walks one subgraph per communication.
    SubgraphScratch local_scratch;
    SubgraphScratch &sg_scratch = scratch ? *scratch : local_scratch;

    std::vector<ReplicationSubgraph> pool; // NodeId-ordered, = producers
    SharerCounts sharers;
    std::vector<NodeId> seeds;
    std::vector<NodeId> touched;
    bool swept_globally = false;
    std::vector<char> dc_cone_flag;
    std::vector<NodeId> dc_cone;
    std::vector<char> dc_live;
    std::vector<NodeId> dc_work;

    while (true) {
        if (extraComs(comms.count(), mach, ii) == 0)
            return true;
        trace::TraceSpan round_span("pipeline", "replicate.round");
        round_span.arg("comms", comms.count());
        if (stats)
            ++stats->roundsConsidered;

        pool.clear();
        pool.reserve(comms.producers.size());
        for (NodeId com : comms.producers) {
            seeds.clear();
            if (macro_mode) {
                for (NodeId m : hier->membersOf(com, 1)) {
                    if (ddg.node(m).alive && m != com)
                        seeds.push_back(m);
                }
            }
            pool.push_back(findReplicationSubgraph(
                ddg, part, com, comms.communicated, index, seeds, {},
                &sg_scratch));
        }

        // One usage snapshot and one sharer count score every
        // candidate of the round.
        const auto usage = part.usage(ddg, mach);
        sharers.count(pool, ddg.numNodeSlots(), mach.numClusters());

        int best = -1;
        Rational best_weight;
        int best_size = 0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (!replicationFeasible(ddg, mach, part, ii, pool[i],
                                     &usage)) {
                continue;
            }
            const auto removable = findRemovableInstructions(
                ddg, part, pool[i].com, comms.communicated);
            const Rational w = subgraphWeight(
                ddg, mach, part, ii, pool[i], sharers, removable,
                &usage);
            const int size = pool[i].totalNewInstances();
            if (best < 0 || w < best_weight ||
                (w == best_weight &&
                 std::tie(size, pool[i].com) <
                     std::tie(best_size, pool[best].com))) {
                best = static_cast<int>(i);
                best_weight = w;
                best_size = size;
            }
        }
        if (best < 0)
            return false; // no feasible replication: caller raises II

        const ReplicationSubgraph &chosen = pool[best];
        touched.clear();
        applySubgraph(ddg, part, index, chosen, comms.communicated,
                      stats, &touched);
        // The first sweep must be global (the input graph may carry
        // dead code); afterwards only com's ancestor cone can die.
        // MacroNode mode can create consumerless replicas outside
        // that cone, so it always sweeps globally.
        int removed;
        if (!swept_globally || macro_mode) {
            removed = removeDeadCode(ddg, part, index, &touched);
            swept_globally = true;
        } else {
            removed = removeDeadCodeInCone(ddg, part, index, chosen.com,
                                           &touched, dc_cone_flag,
                                           dc_cone, dc_live, dc_work);
        }
        if (stats) {
            ++stats->comsRemoved;
            stats->instructionsRemoved += removed;
        }
        comms.update(ddg, part.vec(), touched);
    }
}

bool
replicateIntoCluster(Ddg &ddg, Partition &part,
                     const MachineConfig &mach, int ii,
                     NodeId producer, int cluster,
                     ReplicationStats *stats, SubgraphScratch *scratch)
{
    if (part.clusterOf(producer) == cluster)
        return false;

    ReplicaIndex index(ddg, part);
    const CommInfo comms = findCommunications(ddg, part.vec());
    if (!comms.communicated[producer])
        return false;

    const ReplicationSubgraph sg = findReplicationSubgraph(
        ddg, part, producer, comms.communicated, index, {}, {cluster},
        scratch);
    if (!replicationFeasible(ddg, mach, part, ii, sg))
        return false;

    applySubgraph(ddg, part, index, sg, comms.communicated, stats);
    const int removed = removeDeadCode(ddg, part, index);
    if (stats)
        stats->instructionsRemoved += removed;
    return true;
}

} // namespace cvliw
