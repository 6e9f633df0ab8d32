#include "ddg/analysis.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

/**
 * Kahn's algorithm over the distance-0 edges. The order is short of
 * the live node count exactly when those edges close a cycle.
 */
std::vector<NodeId>
kahnOrder(const Ddg &ddg)
{
    std::vector<int> indeg(ddg.numNodeSlots(), 0);
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        if (e.distance == 0)
            ++indeg[e.dst];
    }

    std::vector<NodeId> ready;
    for (NodeId n : ddg.nodes()) {
        if (indeg[n] == 0)
            ready.push_back(n);
    }

    std::vector<NodeId> order;
    order.reserve(ddg.numNodes());
    while (!ready.empty()) {
        NodeId n = ready.back();
        ready.pop_back();
        order.push_back(n);
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && e.distance == 0 && --indeg[e.dst] == 0)
                ready.push_back(e.dst);
        }
    }

    return order;
}

} // namespace

std::vector<NodeId>
topoOrder(const Ddg &ddg)
{
    std::vector<NodeId> order = kahnOrder(ddg);
    if (static_cast<int>(order.size()) != ddg.numNodes())
        cv_panic("distance-0 subgraph has a cycle (",
                 order.size(), " of ", ddg.numNodes(),
                 " nodes ordered)");
    return order;
}

bool
hasZeroDistanceCycle(const Ddg &ddg)
{
    return static_cast<int>(kahnOrder(ddg).size()) != ddg.numNodes();
}

namespace
{

/** computeTimes over a precomputed topological order. */
NodeTimes
computeTimesOrdered(const Ddg &ddg, const MachineConfig &mach,
                    const std::vector<NodeId> &order)
{
    NodeTimes t;
    const int slots = ddg.numNodeSlots();
    t.asap.assign(slots, 0);
    t.alap.assign(slots, 0);
    t.height.assign(slots, 0);
    t.depth.assign(slots, 0);

    // Forward pass: ASAP and depth.
    for (NodeId n : order) {
        for (EdgeId eid : ddg.inEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.distance != 0)
                continue;
            const int lat = ddg.edgeLatency(eid, mach);
            t.asap[n] = std::max(t.asap[n], t.asap[e.src] + lat);
            t.depth[n] = std::max(t.depth[n], t.depth[e.src] + lat);
        }
    }

    // Schedule length: all results produced.
    for (NodeId n : order) {
        const int lat = mach.latency(ddg.node(n).cls);
        t.length = std::max(t.length, t.asap[n] + lat);
    }

    // Backward pass: ALAP and height.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const NodeId n = *it;
        const int lat = mach.latency(ddg.node(n).cls);
        t.alap[n] = t.length - lat;
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.distance != 0)
                continue;
            const int elat = ddg.edgeLatency(eid, mach);
            t.alap[n] = std::min(t.alap[n], t.alap[e.dst] - elat);
            t.height[n] = std::max(t.height[n], t.height[e.dst] + elat);
        }
    }

    return t;
}

} // namespace

NodeTimes
computeTimes(const Ddg &ddg, const MachineConfig &mach)
{
    return computeTimesOrdered(ddg, mach, topoOrder(ddg));
}

std::vector<int>
stronglyConnectedComponents(const Ddg &ddg)
{
    const int slots = ddg.numNodeSlots();
    std::vector<int> index(slots, -1), lowlink(slots, -1);
    std::vector<int> comp(slots, -1);
    std::vector<bool> on_stack(slots, false);
    std::vector<NodeId> stack;
    int next_index = 0;
    int next_comp = 0;

    // Iterative DFS to avoid deep recursion on long chains. Each
    // frame walks the node's raw out-span directly (the graph is not
    // mutated here, so borrowed spans are safe) - no per-frame
    // successor copies, dead edges skipped at the fetch.
    struct Frame
    {
        NodeId n;
        const EdgeId *it, *end;
    };

    std::vector<Frame> dfs;
    for (NodeId root : ddg.nodes()) {
        if (index[root] != -1)
            continue;
        auto push = [&](NodeId n) {
            index[n] = lowlink[n] = next_index++;
            stack.push_back(n);
            on_stack[n] = true;
            const EdgeSpan out = ddg.outEdgesRaw(n);
            dfs.push_back({n, out.begin(), out.end()});
        };
        push(root);
        while (!dfs.empty()) {
            Frame &f = dfs.back();
            if (f.it != f.end) {
                const DdgEdge &e = ddg.edge(*f.it);
                ++f.it;
                if (!e.alive)
                    continue;
                const NodeId s = e.dst;
                if (index[s] == -1) {
                    push(s);
                } else if (on_stack[s]) {
                    lowlink[f.n] = std::min(lowlink[f.n], index[s]);
                }
            } else {
                if (lowlink[f.n] == index[f.n]) {
                    // f.n is an SCC root; pop its component.
                    while (true) {
                        NodeId w = stack.back();
                        stack.pop_back();
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if (w == f.n)
                            break;
                    }
                    ++next_comp;
                }
                NodeId done = f.n;
                dfs.pop_back();
                if (!dfs.empty()) {
                    lowlink[dfs.back().n] =
                        std::min(lowlink[dfs.back().n], lowlink[done]);
                }
            }
        }
    }
    return comp;
}

std::vector<FlatEdge>
flattenEdges(const Ddg &ddg, const MachineConfig &mach)
{
    std::vector<FlatEdge> flat;
    flat.reserve(ddg.numEdges());
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        flat.push_back({e.src, e.dst, ddg.edgeLatency(eid, mach),
                        e.distance});
    }
    return flat;
}

bool
hasPositiveCycleFlat(const std::vector<FlatEdge> &edges, int num_nodes,
                     int slots, int ii, std::vector<long long> &dist)
{
    // Bellman-Ford longest-path relaxation with edge weight
    // latency - II * distance; a relaxation in pass |V| proves a
    // positive-weight cycle, i.e. a recurrence that does not fit II.
    dist.assign(slots, 0);
    const int passes = num_nodes;
    for (int pass = 0; pass <= passes; ++pass) {
        bool relaxed = false;
        for (const FlatEdge &e : edges) {
            const long long w =
                e.latency - static_cast<long long>(ii) * e.distance;
            if (dist[e.src] + w > dist[e.dst]) {
                dist[e.dst] = dist[e.src] + w;
                relaxed = true;
            }
        }
        if (!relaxed)
            return false;
        if (pass == passes)
            return true;
    }
    return false;
}

bool
hasPositiveCycle(const Ddg &ddg, const MachineConfig &mach, int ii)
{
    const auto edges = flattenEdges(ddg, mach);
    std::vector<long long> dist;
    return hasPositiveCycleFlat(edges, ddg.numNodes(),
                                ddg.numNodeSlots(), ii, dist);
}

int
recurrenceMii(const Ddg &ddg, const MachineConfig &mach)
{
    // Flatten once: the binary search probes many IIs over the same
    // edge weights.
    const auto edges = flattenEdges(ddg, mach);
    const int num_nodes = ddg.numNodes();
    const int slots = ddg.numNodeSlots();
    std::vector<long long> dist;

    // Upper bound: the total latency of all edges bounds any single
    // cycle's latency sum; a cycle has distance sum >= 1.
    long long hi = 1;
    for (const FlatEdge &e : edges)
        hi += e.latency;

    if (!hasPositiveCycleFlat(edges, num_nodes, slots, 1, dist))
        return 1;

    // Smallest II in (1, hi] with no positive cycle; monotone in II.
    long long lo = 1; // has positive cycle
    while (lo + 1 < hi) {
        long long mid = lo + (hi - lo) / 2;
        if (hasPositiveCycleFlat(edges, num_nodes, slots,
                                 static_cast<int>(mid), dist))
            lo = mid;
        else
            hi = mid;
    }
    return static_cast<int>(hi);
}

std::vector<bool>
nodesOnRecurrences(const Ddg &ddg)
{
    const auto comp = stronglyConnectedComponents(ddg);
    std::vector<int> comp_size(ddg.numNodeSlots(), 0);
    for (NodeId n : ddg.nodes())
        ++comp_size[comp[n]];

    std::vector<bool> on(ddg.numNodeSlots(), false);
    for (NodeId n : ddg.nodes()) {
        if (comp_size[comp[n]] > 1) {
            on[n] = true;
            continue;
        }
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && e.dst == n) { // self-loop recurrence
                on[n] = true;
                break;
            }
        }
    }
    return on;
}

const std::vector<NodeId> &
AnalysisCache::topo(const Ddg &ddg)
{
    if (topoGen_ != ddg.generation()) {
        topo_ = topoOrder(ddg);
        topoGen_ = ddg.generation();
    }
    return topo_;
}

const NodeTimes &
AnalysisCache::times(const Ddg &ddg, const MachineConfig &mach)
{
    if (timesGen_ != ddg.generation() || timesCfg_ != mach.id()) {
        times_ = computeTimesOrdered(ddg, mach, topo(ddg));
        timesGen_ = ddg.generation();
        timesCfg_ = mach.id();
    }
    return times_;
}

const std::vector<int> &
AnalysisCache::scc(const Ddg &ddg)
{
    if (sccGen_ != ddg.generation()) {
        scc_ = stronglyConnectedComponents(ddg);
        sccGen_ = ddg.generation();
    }
    return scc_;
}

} // namespace cvliw
