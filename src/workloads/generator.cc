#include "workloads/generator.hh"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "support/logging.hh"

namespace cvliw
{

std::string
Loop::name() const
{
    return benchmark + "#" + std::to_string(index);
}

namespace
{

/** Append @p v in decimal, as std::to_string spells it. */
void
appendDecimal(std::string &out, int v)
{
    char buf[16];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

/**
 * State for generating one dataflow component into a LoopScratch.
 * Nodes and edges get the ids, fields and order that addNode/addEdge
 * calls on a growing Ddg would give them.
 */
struct ComponentBuilder
{
    LoopScratch &s;
    const BenchmarkProfile &prof;
    Rng &rng;
    std::string prefix;

    /** Add a node labelled prefix + tag [+ num [+ "_" + sub]]. */
    NodeId
    addNode(OpClass cls, std::string_view tag, int num = -1,
            int sub = -1)
    {
        const NodeId id = static_cast<NodeId>(s.nodes.size());
        DdgNode n;
        n.cls = cls;
        n.semanticId = id;
        n.labelOffset = static_cast<std::uint32_t>(s.labels.size());
        s.labels += prefix;
        s.labels += tag;
        if (num >= 0)
            appendDecimal(s.labels, num);
        if (sub >= 0) {
            s.labels += '_';
            appendDecimal(s.labels, sub);
        }
        n.labelLen =
            static_cast<std::uint32_t>(s.labels.size()) - n.labelOffset;
        s.nodes.push_back(n);
        s.flowOut.push_back(0);
        return id;
    }

    void
    addEdge(NodeId src, NodeId dst, EdgeKind kind, int distance,
            int mem_latency = 1)
    {
        DdgEdge e;
        e.src = src;
        e.dst = dst;
        e.kind = kind;
        e.distance = distance;
        e.memLatency = static_cast<std::int16_t>(mem_latency);
        s.edges.push_back(e);
        if (kind == EdgeKind::RegFlow)
            ++s.flowOut[src];
    }

    /**
     * Build the register-flow in-edge CSR of the nodes from @p base
     * on, over the edges from @p edge_base on, in edge-id order: node
     * v's producers are inSrc[inStart[v - base] .. inStart[v - base +
     * 1]). Counting at v + 2 and filling through v + 1 leaves each
     * inStart[v] at v's first producer once the fill is done.
     */
    void
    buildFlowPredCsr(NodeId base, std::size_t edge_base)
    {
        const std::size_t n = s.nodes.size() - base;
        s.inStart.assign(n + 2, 0);
        for (std::size_t i = edge_base; i < s.edges.size(); ++i) {
            if (s.edges[i].kind == EdgeKind::RegFlow)
                ++s.inStart[s.edges[i].dst - base + 2];
        }
        for (std::size_t v = 2; v < n + 2; ++v)
            s.inStart[v] += s.inStart[v - 1];
        s.inSrc.resize(s.inStart[n + 1]);
        for (std::size_t i = edge_base; i < s.edges.size(); ++i) {
            const DdgEdge &e = s.edges[i];
            if (e.kind == EdgeKind::RegFlow)
                s.inSrc[s.inStart[e.dst - base + 1]++] = e.src;
        }
    }

    void
    build(int ops_budget)
    {
        const NodeId base = static_cast<NodeId>(s.nodes.size());
        const std::size_t edge_base = s.edges.size();
        s.intNodes.clear();
        s.loads.clear();
        s.chainTails.clear();
        s.stores.clear();

        // --- split the budget ----------------------------------------
        int int_ops = std::max(
            1, static_cast<int>(std::lround(ops_budget *
                                            prof.intFrac)));
        int mem_ops = std::max(
            2, static_cast<int>(std::lround(ops_budget *
                                            prof.memFrac)));
        int fp_ops = std::max(1, ops_budget - int_ops - mem_ops);

        int num_loads =
            std::max(1, static_cast<int>(std::lround(mem_ops * 0.6)));
        int num_stores = std::max(0, mem_ops - num_loads);

        // --- integer top: induction + address arithmetic --------------
        const NodeId ind = addNode(OpClass::IntAlu, "i");
        addEdge(ind, ind, EdgeKind::RegFlow, 1); // i = i + 1
        s.intNodes.push_back(ind);
        for (int k = 1; k < int_ops; ++k) {
            // Address computations mostly hang directly off the
            // induction variable (a[i], b[i], ...), occasionally off
            // an earlier address op (multi-dimensional indexing).
            // A flat top keeps streams separable - the partitioner
            // can cut between them - while the induction variable
            // remains the shared root whose replication is cheap.
            const NodeId operand =
                rng.chance(0.35) && s.intNodes.size() > 1
                    ? s.intNodes[rng.uniformInt(1, s.intNodes.size() - 1)]
                    : ind;
            const NodeId a = addNode(OpClass::IntAlu, "a", k);
            addEdge(operand, a, EdgeKind::RegFlow, 0);
            s.intNodes.push_back(a);
        }

        // --- loads -----------------------------------------------------
        for (int k = 0; k < num_loads; ++k) {
            // Round-robin over the address ops: each load gets its
            // own address stream whenever enough exist.
            NodeId addr = ind;
            if (s.intNodes.size() > 1)
                addr = s.intNodes[1 + (k % (s.intNodes.size() - 1))];
            const NodeId ld = addNode(OpClass::Load, "ld", k);
            addEdge(addr, ld, EdgeKind::RegFlow, 0);
            s.loads.push_back(ld);
        }

        // --- fp chains ---------------------------------------------------
        const int num_chains = std::max(
            1,
            static_cast<int>(std::lround(fp_ops * prof.parallelism)));
        s.chainLen.assign(num_chains, 0);
        for (int k = 0; k < fp_ops; ++k)
            ++s.chainLen[k % num_chains];

        // Each chain's ops are created back to back, so chain c is the
        // node range [chainStart[c], chainStart[c] + chainLen[c]).
        s.chainStart.resize(num_chains);
        for (int c = 0; c < num_chains; ++c) {
            const int len = s.chainLen[c];
            s.chainStart[c] = static_cast<NodeId>(s.nodes.size());
            const bool has_div = rng.chance(prof.fpDivProb);
            const int div_pos =
                has_div ? rng.uniformInt(0, len - 1) : -1;
            for (int k = 0; k < len; ++k) {
                OpClass cls = OpClass::FpAlu;
                if (k == div_pos)
                    cls = OpClass::FpDiv;
                else if (rng.chance(prof.fpMulFrac))
                    cls = OpClass::FpMul;

                const NodeId op = addNode(cls, "f", c, k);

                // First operand: previous chain op, else this
                // chain's (mostly private) load stream.
                if (k > 0) {
                    addEdge(op - 1, op, EdgeKind::RegFlow, 0);
                } else {
                    const NodeId ld = s.loads[c % s.loads.size()];
                    addEdge(ld, op, EdgeKind::RegFlow, 0);
                }
                // Sharing: a load everyone wants, or a value from
                // another chain (cross links create the wide, shared
                // dataflow that makes clustering expensive).
                if (rng.chance(prof.sharedLoadProb)) {
                    const NodeId ld =
                        s.loads[rng.uniformInt(0, s.loads.size() - 1)];
                    addEdge(ld, op, EdgeKind::RegFlow, 0);
                }
                if (c > 0 && rng.chance(prof.crossProb)) {
                    const int other = static_cast<int>(
                        rng.uniformInt(0, c - 1));
                    const int other_len = s.chainLen[other];
                    if (other_len > 0) {
                        const NodeId cross =
                            s.chainStart[other] +
                            static_cast<NodeId>(
                                rng.uniformInt(0, other_len - 1));
                        addEdge(cross, op, EdgeKind::RegFlow, 0);
                    }
                }
            }
            if (len == 0)
                continue;

            // Reduction: the chain accumulates across iterations.
            const NodeId tail = s.chainStart[c] + len - 1;
            if (rng.chance(prof.recurProb)) {
                addEdge(tail, tail, EdgeKind::RegFlow, 1);
                s.nodes[tail].liveOut = true;
            }
            s.chainTails.push_back(tail);
        }

        // --- stores -------------------------------------------------------
        for (int k = 0; k < num_stores; ++k) {
            const NodeId st = addNode(OpClass::Store, "st", k);
            const NodeId val = s.chainTails[rng.uniformInt(
                0, s.chainTails.size() - 1)];
            const NodeId addr =
                s.intNodes[rng.uniformInt(0, s.intNodes.size() - 1)];
            addEdge(val, st, EdgeKind::RegFlow, 0);
            addEdge(addr, st, EdgeKind::RegFlow, 0);
            s.stores.push_back(st);
        }

        // Loop-carried memory dependences: read-modify-write array
        // patterns (a[i] = f(a[i-d])). The store writes what a load
        // *upstream of it* will read d iterations later, closing a
        // memory recurrence through the centralized cache. Using an
        // ancestor load keeps the dependence a true recurrence, so
        // RecMII accounts for it (Figure 1: recurrences rarely force
        // the II above MII precisely because MII already covers
        // them). The loop below adds only Memory edges, which the
        // ancestor search does not follow, so one CSR serves it all.
        buildFlowPredCsr(base, edge_base);
        for (NodeId st : s.stores) {
            if (!rng.chance(prof.memDepProb))
                continue;
            // Collect ancestor loads of the store via flow edges.
            s.anc.clear();
            s.seen.assign(s.nodes.size() - base, 0);
            s.work.assign(1, st);
            while (!s.work.empty()) {
                const NodeId v = s.work.back();
                s.work.pop_back();
                for (std::uint32_t i = s.inStart[v - base];
                     i < s.inStart[v - base + 1]; ++i) {
                    const NodeId p = s.inSrc[i];
                    if (s.seen[p - base])
                        continue;
                    s.seen[p - base] = 1;
                    if (s.nodes[p].cls == OpClass::Load)
                        s.anc.push_back(p);
                    s.work.push_back(p);
                }
            }
            if (s.anc.empty())
                continue;
            const NodeId ld =
                s.anc[rng.uniformInt(0, s.anc.size() - 1)];
            const int dist =
                static_cast<int>(rng.uniformInt(2, 5));
            addEdge(st, ld, EdgeKind::Memory, dist, 1);
        }
    }
};

} // namespace

Loop
generateLoop(const BenchmarkProfile &prof, Rng &rng, int index)
{
    LoopScratch scratch;
    return generateLoop(prof, rng, index, scratch);
}

Loop
generateLoop(const BenchmarkProfile &prof, Rng &rng, int index,
             LoopScratch &scratch)
{
    Loop loop;
    loop.benchmark = prof.name;
    loop.index = index;
    scratch.nodes.clear();
    scratch.edges.clear();
    scratch.labels.clear();
    scratch.flowOut.clear();

    const int target_ops =
        static_cast<int>(rng.uniformInt(prof.minOps, prof.maxOps));
    int components = prof.components;
    if (rng.chance(prof.componentJitter))
        ++components;
    components = std::max(1, components);

    const int per_component = std::max(6, target_ops / components);
    for (int comp = 0; comp < components; ++comp) {
        ComponentBuilder builder{scratch, prof, rng,
                                 "c" + std::to_string(comp) + "."};
        builder.build(per_component);
    }

    // Every non-store sink is live-out: loops produce either memory
    // writes or values consumed after the loop. This also protects
    // results from the post-replication dead-code elimination.
    for (std::size_t n = 0; n < scratch.nodes.size(); ++n) {
        DdgNode &node = scratch.nodes[n];
        if (node.cls != OpClass::Store && scratch.flowOut[n] == 0)
            node.liveOut = true;
    }
    loop.ddg = Ddg::fromSlots(
        scratch.nodes.data(),
        static_cast<std::uint32_t>(scratch.nodes.size()),
        scratch.edges.data(),
        static_cast<std::uint32_t>(scratch.edges.size()), scratch.labels);

    // Dynamic profile: lognormal-ish jitter around the averages.
    const double iter_jit =
        std::exp((rng.uniformReal() - 0.5) * 2.0 * prof.itersJitter);
    loop.profile.avgIters =
        std::max(1.0, std::round(prof.avgIters * iter_jit));
    const double visit_jit =
        std::exp((rng.uniformReal() - 0.5) * 2.0);
    loop.profile.visits =
        std::max(1.0, std::round(prof.visitsScale * visit_jit));

    return loop;
}

} // namespace cvliw
