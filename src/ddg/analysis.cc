#include "ddg/analysis.hh"

#include <algorithm>

namespace cvliw
{

std::vector<NodeId>
topoOrder(const Ddg &ddg)
{
    // Kahn's algorithm; a cycle leaves the order short.
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

    if (static_cast<int>(order.size()) != ddg.numNodes()) {
        throw InvalidInput("distance-0 edges close a cycle in a " +
                           std::to_string(ddg.numNodes()) +
                           "-node graph");
    }
    return order;
}

namespace
{

/** ASAP/ALAP/height and the critical-path length over @p order. */
NodeTimes
nodeTimes(const Ddg &ddg, const MachineConfig &mach,
          const std::vector<NodeId> &order)
{
    NodeTimes t;
    const int slots = ddg.numNodeSlots();
    t.asap.assign(slots, 0);
    t.alap.assign(slots, 0);
    t.height.assign(slots, 0);

    // Forward pass: ASAP and the length (all results produced).
    for (NodeId n : order) {
        for (EdgeId eid : ddg.inEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.distance != 0)
                continue;
            const int lat = ddg.edgeLatency(eid, mach);
            t.asap[n] = std::max(t.asap[n], t.asap[e.src] + lat);
        }
        t.length = std::max(t.length,
                            t.asap[n] + mach.latency(ddg.node(n).cls));
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

/**
 * Tarjan's strongly connected components over all live edges.
 * @return the number of components; @p comp gets one per NodeId
 */
int
tarjan(const Ddg &ddg, std::vector<int> &comp)
{
    const int slots = ddg.numNodeSlots();
    std::vector<int> index(slots, -1), lowlink(slots, -1);
    comp.assign(slots, -1);
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
    return next_comp;
}

/** An edge inside one recurrence, its latency resolved once. */
struct CycleEdge
{
    NodeId src;
    NodeId dst;
    int latency;
    int distance;
};

/**
 * Does a cycle of @p edges not fit @p ii? Bellman-Ford with weight
 * latency - II * distance: a relaxation in pass |members| proves a
 * positive-weight cycle. @p dist is scratch indexed by NodeId.
 */
bool
exceedsIi(const std::vector<CycleEdge> &edges,
          const std::vector<NodeId> &members, long long ii,
          std::vector<long long> &dist)
{
    for (NodeId n : members)
        dist[n] = 0;
    for (std::size_t pass = 0; pass <= members.size(); ++pass) {
        bool relaxed = false;
        for (const CycleEdge &e : edges) {
            const long long w = e.latency - ii * e.distance;
            if (dist[e.src] + w > dist[e.dst]) {
                dist[e.dst] = dist[e.src] + w;
                relaxed = true;
            }
        }
        if (!relaxed)
            return false;
    }
    return true;
}

/** RecMII of one recurrence: the smallest II all its cycles fit. */
int
cycleMii(const std::vector<CycleEdge> &edges,
         const std::vector<NodeId> &members, std::vector<long long> &dist)
{
    if (!exceedsIi(edges, members, 1, dist))
        return 1;

    // Upper bound: a cycle's latency sum is at most the sum of the
    // positive latencies, and its distance sum is at least 1.
    long long hi = 1;
    for (const CycleEdge &e : edges)
        hi += std::max(0, e.latency);

    // Smallest II in (1, hi] with every cycle fitting; monotone in II.
    long long lo = 1;
    while (lo + 1 < hi) {
        const long long mid = lo + (hi - lo) / 2;
        if (exceedsIi(edges, members, mid, dist))
            lo = mid;
        else
            hi = mid;
    }
    return static_cast<int>(hi);
}

} // namespace

LoopAnalysis
analyzeLoop(const Ddg &ddg, const MachineConfig &mach)
{
    LoopAnalysis a;
    a.order = topoOrder(ddg);
    a.times = nodeTimes(ddg, mach, a.order);

    // A component is a recurrence exactly when an edge joins two of
    // its nodes (or one node to itself). rec_of: -2 for the others,
    // then -1 until its first member, in NodeId order, numbers it.
    const int num_comps = tarjan(ddg, a.scc);
    std::vector<int> rec_of(num_comps, -2);
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        if (a.scc[e.src] == a.scc[e.dst])
            rec_of[a.scc[e.src]] = -1;
    }
    for (NodeId n : ddg.nodes()) {
        int &r = rec_of[a.scc[n]];
        if (r == -1) {
            r = static_cast<int>(a.recurrences.size());
            a.recurrences.emplace_back();
        }
        if (r >= 0)
            a.recurrences[r].members.push_back(n);
    }

    std::vector<CycleEdge> edges;
    std::vector<long long> dist(ddg.numNodeSlots(), 0);
    for (Recurrence &r : a.recurrences) {
        edges.clear();
        for (NodeId n : r.members) {
            for (EdgeId eid : ddg.outEdgesRaw(n)) {
                const DdgEdge &e = ddg.edge(eid);
                if (e.alive && a.scc[e.dst] == a.scc[n]) {
                    edges.push_back({e.src, e.dst,
                                     ddg.edgeLatency(eid, mach),
                                     e.distance});
                }
            }
        }
        r.recMii = cycleMii(edges, r.members, dist);
        a.recMii = std::max(a.recMii, r.recMii);
    }
    return a;
}

} // namespace cvliw
