#include "ddg/ddg.hh"

#include <atomic>
#include <limits>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

/**
 * Append @p id to @p slot in @p arena: in place while the entry just
 * past the span is `invalidEdge` (slack). A full span relocates to
 * fresh arena tail, twice its length (4 if empty) with the rest
 * filled with `invalidEdge`; the dead region left behind is never
 * reused, so stale views of it keep reading pre-relocation data.
 */
void
appendAdj(detail::CowArray<EdgeId> &arena, detail::AdjSlot &slot,
          EdgeId id)
{
    const std::size_t end = std::size_t{slot.offset} + slot.count;
    if (end >= arena.size() || arena[end] != invalidEdge) {
        const std::uint32_t cap = slot.count ? 2 * slot.count : 4;
        cv_assert(arena.size() + cap <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "adjacency arena overflow");
        const std::uint32_t off =
            static_cast<std::uint32_t>(arena.size());
        arena.resize(arena.size() + cap, invalidEdge);
        // Pointers taken before resize would dangle: it may move the
        // arena.
        EdgeId *a = arena.writable();
        std::copy_n(a + slot.offset, slot.count, a + off);
        slot.offset = off;
    }
    arena.writable()[slot.offset + slot.count++] = id;
}

/** Reject row @p row of a fromSlots array for breaking @p rule. */
[[noreturn]] void
rejectSlot(const char *array, std::uint32_t row, const std::string &rule)
{
    throw DdgSlotError(std::string(array) + " record row " +
                       std::to_string(row) + ": " + rule);
}

} // namespace

std::uint64_t
Ddg::freshGeneration()
{
    // Process-unique stamps: CompileService compiles loops from
    // several threads, so the counter must be atomic. Relaxed is
    // enough - the stamp only needs uniqueness, not ordering.
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Ddg
Ddg::fromSlots(const DdgNode *nodes, std::uint32_t node_slots,
               const DdgEdge *edges, std::uint32_t edge_slots)
{
    Ddg g;
    g.nodes_.append(nodes, node_slots);
    g.edges_.append(edges, edge_slots);

    // The rules are checked on the graph's own copies; a throw
    // discards them with the graph.
    g.liveNodes_ = 0;
    for (std::uint32_t i = 0; i < node_slots; ++i) {
        const DdgNode &n = g.nodes_[i];
        if (n.cls >= OpClass::NumOpClasses)
            rejectSlot("node", i,
                       "op class " +
                           std::to_string(static_cast<int>(n.cls)) +
                           " outside the op classes");
        // Unsigned compare folds the negative case.
        if (static_cast<std::uint32_t>(n.semanticId) >= node_slots) {
            rejectSlot("node", i,
                       "semantic id " + std::to_string(n.semanticId) +
                           " outside the node array");
        }
        g.liveNodes_ += n.alive;
    }

    // Each span's count is its degree, dead edges included; the
    // prefix sums below turn the counts into offsets.
    g.slots_.resize(2 * static_cast<std::size_t>(node_slots));
    detail::AdjSlot *slots = g.slots_.writable();
    g.liveEdges_ = 0;
    for (std::uint32_t i = 0; i < edge_slots; ++i) {
        const DdgEdge &e = g.edges_[i];
        if (e.kind > EdgeKind::Spill)
            rejectSlot("edge", i,
                       "edge kind " +
                           std::to_string(static_cast<int>(e.kind)) +
                           " outside the edge kinds");
        if (static_cast<std::uint32_t>(e.src) >= node_slots ||
            static_cast<std::uint32_t>(e.dst) >= node_slots) {
            rejectSlot("edge", i, "endpoint outside the node array");
        }
        if (e.distance < 0)
            rejectSlot("edge", i, "negative distance");
        if (e.alive) {
            if (!g.nodes_[e.src].alive || !g.nodes_[e.dst].alive)
                rejectSlot("edge", i, "live edge on a dead node");
            if (e.kind == EdgeKind::RegFlow &&
                !producesValue(g.nodes_[e.src].cls)) {
                rejectSlot("edge", i,
                           "flow edge from a non-value-producing op");
            }
        }
        g.liveEdges_ += e.alive;
        ++slots[2 * static_cast<std::size_t>(e.src) + 1].count;
        ++slots[2 * static_cast<std::size_t>(e.dst)].count;
    }

    // Exactly-sized arena: spans laid out back to back in node order
    // (in-span then out-span per node) with no slack (the compact
    // form), filled in edge-id order. Dead edge ids stay in the
    // spans; the views skip them.
    std::uint32_t total = 0;
    for (std::size_t k = 0; k < g.slots_.size(); ++k) {
        slots[k].offset = total;
        total += slots[k].count;
        slots[k].count = 0;
    }
    g.arena_.resize(total);
    EdgeId *arena = g.arena_.writable();
    for (std::uint32_t i = 0; i < edge_slots; ++i) {
        const DdgEdge &e = g.edges_[i];
        detail::AdjSlot &out =
            slots[2 * static_cast<std::size_t>(e.src) + 1];
        arena[out.offset + out.count++] = static_cast<EdgeId>(i);
        detail::AdjSlot &in = slots[2 * static_cast<std::size_t>(e.dst)];
        arena[in.offset + in.count++] = static_cast<EdgeId>(i);
    }
    // One fresh stamp for the whole load (the constructor already
    // produced one; bulk loading is a single structural mutation).
    return g;
}

void
Ddg::compact()
{
    // Already at fromSlots density? arena_.size() == sum(count) holds
    // exactly when no span carries slack and no dead region was left
    // behind by a relocation.
    std::size_t adj_total = 0;
    for (const detail::AdjSlot &s : slots_)
        adj_total += s.count;
    // Capacity slack goes last, except in arrays another graph still
    // shares (see CowArray::shrinkToFit).
    const auto trim = [this] {
        nodes_.shrinkToFit();
        edges_.shrinkToFit();
        arena_.shrinkToFit();
        slots_.shrinkToFit();
    };
    if (arena_.size() == adj_total) {
        trim();
        return;
    }

#ifndef NDEBUG
    // Adjacency must survive bit-for-bit: same edge ids, same order,
    // per span. Snapshot before repacking, verify after. Deep copies:
    // a sharing copy would keep the trim below from dropping slack.
    const std::vector<EdgeId> pre_arena(arena_.begin(), arena_.end());
    const std::vector<detail::AdjSlot> pre_slots(slots_.begin(),
                                                 slots_.end());
#endif

    detail::CowArray<EdgeId> packed;
    packed.resize(adj_total);
    EdgeId *out = packed.writable();
    detail::AdjSlot *slots = slots_.writable();
    std::uint32_t off = 0;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
        detail::AdjSlot &s = slots[k];
        std::copy_n(arena_.data() + s.offset, s.count, out + off);
        s.offset = off;
        off += s.count;
    }
    arena_ = std::move(packed);

#ifndef NDEBUG
    for (std::size_t n = 0; n < slots_.size(); ++n) {
        const detail::AdjSlot &now = slots_[n];
        const detail::AdjSlot &was = pre_slots[n];
        cv_assert(now.count == was.count,
                  "compact changed a span's length");
        for (std::uint32_t i = 0; i < now.count; ++i) {
            cv_assert(arena_[now.offset + i] ==
                          pre_arena[was.offset + i],
                      "compact changed adjacency content");
        }
    }
#endif
    trim();
    // No generation bump: the graph's structure (nodes, edges,
    // traversal order) is untouched; only the storage layout moved.
}

NodeId
Ddg::addNode(OpClass cls)
{
    const NodeId id = static_cast<NodeId>(nodes_.size());
    DdgNode n;
    n.cls = cls;
    n.semanticId = id;
    nodes_.push_back(n);
    slots_.resize(slots_.size() + 2); // in-span, out-span
    ++liveNodes_;
    bumpGeneration();
    return id;
}

NodeId
Ddg::addReplica(NodeId original)
{
    checkNode(original);
    DdgNode n;
    n.cls = nodes_[original].cls;
    n.semanticId = nodes_[original].semanticId;
    n.isReplica = true;
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(n);
    slots_.resize(slots_.size() + 2); // in-span, out-span
    ++liveNodes_;
    bumpGeneration();
    return id;
}

EdgeId
Ddg::addEdge(NodeId src, NodeId dst, EdgeKind kind, int distance,
             int mem_latency)
{
    checkNode(src);
    checkNode(dst);
    cv_assert(distance >= 0, "edge distance must be >= 0");
    cv_assert(mem_latency >= std::numeric_limits<std::int16_t>::min() &&
                  mem_latency <= std::numeric_limits<std::int16_t>::max(),
              "memory latency ", mem_latency, " outside int16_t");
    if (kind == EdgeKind::RegFlow) {
        cv_assert(producesValue(nodes_[src].cls),
                  "flow edge from non-value-producing op n", src);
    }

    const EdgeId id = static_cast<EdgeId>(edges_.size());
    DdgEdge e;
    e.src = src;
    e.dst = dst;
    e.kind = kind;
    e.distance = distance;
    e.memLatency = static_cast<std::int16_t>(mem_latency);
    edges_.push_back(e);
    detail::AdjSlot *slots = slots_.writable();
    appendAdj(arena_, slots[2 * src + 1], id);
    appendAdj(arena_, slots[2 * dst], id);
    ++liveEdges_;
    bumpGeneration();
    return id;
}

void
Ddg::removeNode(NodeId id)
{
    checkNode(id);
    DdgEdge *edges = edges_.writable();
    for (EdgeId eid : inEdgesRaw(id)) {
        if (edges[eid].alive) {
            edges[eid].alive = false;
            --liveEdges_;
        }
    }
    for (EdgeId eid : outEdgesRaw(id)) {
        if (edges[eid].alive) {
            edges[eid].alive = false;
            --liveEdges_;
        }
    }
    nodes_.writable()[id].alive = false;
    --liveNodes_;
    bumpGeneration();
}

void
Ddg::removeEdge(EdgeId id)
{
    checkEdge(id);
    edges_.writable()[id].alive = false;
    --liveEdges_;
    bumpGeneration();
}

const DdgNode &
Ddg::node(NodeId id) const
{
    cv_assert(id >= 0 && id < numNodeSlots(), "bad node id ", id);
    return nodes_[id];
}

DdgNode &
Ddg::node(NodeId id)
{
    cv_assert(id >= 0 && id < numNodeSlots(), "bad node id ", id);
    return nodes_.writable()[id];
}

const DdgEdge &
Ddg::edge(EdgeId id) const
{
    cv_assert(id >= 0 && id < numEdgeSlots(), "bad edge id ", id);
    return edges_[id];
}

DdgEdge &
Ddg::edge(EdgeId id)
{
    cv_assert(id >= 0 && id < numEdgeSlots(), "bad edge id ", id);
    return edges_.writable()[id];
}

LiveAdjRange
Ddg::inEdges(NodeId id) const
{
    checkNode(id);
    return LiveAdjRange(arena_, slots_[2 * id], edges_);
}

LiveAdjRange
Ddg::outEdges(NodeId id) const
{
    checkNode(id);
    return LiveAdjRange(arena_, slots_[2 * id + 1], edges_);
}

EdgeSpan
Ddg::inEdgesRaw(NodeId id) const
{
    cv_assert(id >= 0 && id < numNodeSlots(), "bad node id ", id);
    const detail::AdjSlot &s = slots_[2 * id];
    return EdgeSpan(s.count ? arena_.data() + s.offset : nullptr,
                    s.count);
}

EdgeSpan
Ddg::outEdgesRaw(NodeId id) const
{
    cv_assert(id >= 0 && id < numNodeSlots(), "bad node id ", id);
    const detail::AdjSlot &s = slots_[2 * id + 1];
    return EdgeSpan(s.count ? arena_.data() + s.offset : nullptr,
                    s.count);
}

FlowNeighborRange
Ddg::flowPreds(NodeId id) const
{
    checkNode(id);
    return FlowNeighborRange(arena_, slots_[2 * id], edges_, true);
}

FlowNeighborRange
Ddg::flowSuccs(NodeId id) const
{
    checkNode(id);
    return FlowNeighborRange(arena_, slots_[2 * id + 1], edges_,
                             false);
}

int
Ddg::edgeLatency(EdgeId eid, const MachineConfig &mach) const
{
    checkEdge(eid);
    const DdgEdge &e = edges_[eid];
    if (e.kind == EdgeKind::Memory)
        return e.memLatency;
    if (e.kind == EdgeKind::Spill) {
        // The reload can issue once the spill store has completed.
        return mach.latency(OpClass::Store);
    }
    const DdgNode &src = nodes_[e.src];
    if (src.cls == OpClass::Copy)
        return mach.busLatency();
    return mach.latency(src.cls);
}

bool
Ddg::hasCopies() const
{
    for (const auto &n : nodes_) {
        if (n.alive && n.cls == OpClass::Copy)
            return true;
    }
    return false;
}

void
Ddg::checkNode(NodeId id) const
{
    cv_assert(id >= 0 && id < numNodeSlots(), "bad node id ", id);
    cv_assert(nodes_[id].alive, "dead node n", id);
}

void
Ddg::checkEdge(EdgeId id) const
{
    cv_assert(id >= 0 && id < numEdgeSlots(), "bad edge id ", id);
    cv_assert(edges_[id].alive, "dead edge ", id);
}

} // namespace cvliw
