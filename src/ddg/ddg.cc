#include "ddg/ddg.hh"

#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

/**
 * Append @p id to @p slot's in-list (@p in_side) or out-list by the
 * growth rule in ddg.hh's file comment: in place into the block's
 * slack, which an in-edge may take only while the out-list is empty,
 * else by moving the whole block to the arena tail.
 */
void
appendAdj(detail::CowArray<EdgeId> &arena, detail::AdjSlot &slot,
          EdgeId id, bool in_side)
{
    const std::uint32_t len = std::uint32_t{slot.in} + slot.out;
    const std::size_t end = std::size_t{slot.offset} + len;
    if ((!in_side || slot.out == 0) && end < arena.size() &&
        arena[end] == invalidEdge) {
        arena.writable()[end] = id;
    } else {
        const std::uint32_t cap = len ? 2 * len : 4;
        cv_assert(arena.size() + cap <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "adjacency arena overflow");
        const std::uint32_t off =
            static_cast<std::uint32_t>(arena.size());
        arena.resize(arena.size() + cap, invalidEdge);
        // Pointers taken before resize would dangle: it may move the
        // arena.
        EdgeId *a = arena.writable();
        EdgeId *to = std::copy_n(a + slot.offset, slot.in, a + off);
        if (in_side)
            *to++ = id;
        to = std::copy_n(a + slot.offset + slot.in, slot.out, to);
        if (!in_side)
            *to = id;
        slot.offset = off;
    }
    ++(in_side ? slot.in : slot.out);
}

/** Reject row @p row of a fromSlots array for breaking @p rule. */
[[noreturn]] void
rejectSlot(const char *array, std::uint32_t row, const std::string &rule)
{
    throw DdgSlotError(std::string(array) + " record row " +
                       std::to_string(row) + ": " + rule);
}

/** The degree-limit rule for node @p v's @p side ("in" or "out") list. */
std::string
spanLimitRule(NodeId v, const char *side)
{
    return "more than " + std::to_string(Ddg::maxSpanSlots) + " " +
           side + "-edge slots on n" + std::to_string(v);
}

/**
 * Reject the edge row of @p edges that takes node @p v's in-list
 * (@p in_side) or out-list past Ddg::maxSpanSlots. The list must be
 * that long.
 */
[[noreturn]] void
rejectSpanLimit(const DdgEdge *edges, std::uint32_t edge_slots, NodeId v,
                bool in_side)
{
    std::uint32_t seen = 0;
    for (std::uint32_t i = 0; i < edge_slots; ++i) {
        const NodeId end = in_side ? edges[i].dst : edges[i].src;
        if (end == v && ++seen > Ddg::maxSpanSlots)
            rejectSlot("edge", i, spanLimitRule(v, in_side ? "in" : "out"));
    }
    cv_panic("n", v, " holds no edge past the span limit");
}

/** True when any live node of @p nodes is a Copy op. */
bool
anyLiveCopy(const detail::CowArray<DdgNode> &nodes)
{
    for (const DdgNode &n : nodes) {
        if (n.alive && n.cls == OpClass::Copy)
            return true;
    }
    return false;
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

    // The edge rules, row by row; buildAdjacency checks the span
    // limit after them.
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
    }
    g.buildAdjacency();
    // One fresh stamp for the whole load (the constructor already
    // produced one; bulk loading is a single structural mutation).
    return g;
}

void
Ddg::buildAdjacency()
{
    // Two counters per node, then two cursors: [2v] for v's in-span,
    // [2v + 1] for its out-span, in a per-thread scratch that loads
    // and conversions reuse. The counts are checked against the span
    // limit once per node, not once per edge.
    const std::size_t node_slots = nodes_.size();
    thread_local std::vector<std::uint32_t> scratch;
    scratch.assign(2 * node_slots, 0);
    std::uint32_t *cur = scratch.data();
    for (const DdgEdge &e : edges_) {
        ++cur[2 * static_cast<std::size_t>(e.src) + 1];
        ++cur[2 * static_cast<std::size_t>(e.dst)];
    }

    // Exactly-sized arena: blocks back to back in node order with no
    // slack (the compact form), each span filled in edge-id order.
    // Dead edge ids stay in the spans; the views skip them.
    slots_.resize(node_slots);
    detail::AdjSlot *slots = slots_.writable();
    std::uint32_t total = 0;
    for (std::size_t v = 0; v < node_slots; ++v) {
        const std::uint32_t in = cur[2 * v], out = cur[2 * v + 1];
        if (in > maxSpanSlots || out > maxSpanSlots) {
            rejectSpanLimit(edges_.data(),
                            static_cast<std::uint32_t>(edges_.size()),
                            static_cast<NodeId>(v), in > maxSpanSlots);
        }
        slots[v] = {total, static_cast<std::uint16_t>(in),
                    static_cast<std::uint16_t>(out)};
        cur[2 * v] = total;
        cur[2 * v + 1] = total + in;
        total += in + out;
    }
    arena_.resize(total);
    EdgeId *arena = arena_.writable();
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        const DdgEdge &e = edges_[i];
        arena[cur[2 * static_cast<std::size_t>(e.src) + 1]++] =
            static_cast<EdgeId>(i);
        arena[cur[2 * static_cast<std::size_t>(e.dst)]++] =
            static_cast<EdgeId>(i);
    }
}

Ddg::Ddg(const DdgRecords &records)
    : nodes_(records.nodes_), edges_(records.edges_),
      liveNodes_(records.liveNodes_), liveEdges_(records.liveEdges_),
      generation_(records.generation_)
{
    buildAdjacency();
}

DdgRecords
Ddg::records() const
{
    DdgRecords r;
    r.nodes_ = nodes_;
    r.edges_ = edges_;
    r.liveNodes_ = liveNodes_;
    r.liveEdges_ = liveEdges_;
    r.generation_ = generation_;
    return r;
}

DdgRecords
Ddg::freeze() &&
{
    if (liveEdges_ != numEdgeSlots()) {
        detail::CowArray<DdgEdge> live;
        live.reserve(static_cast<std::size_t>(liveEdges_));
        for (const DdgEdge &e : edges_) {
            if (e.alive)
                live.push_back(e);
        }
        edges_ = std::move(live);
        generation_ = freshGeneration();
    }
    // Capacity slack only, except in arrays another graph still
    // shares (see CowArray::shrinkToFit).
    nodes_.shrinkToFit();
    edges_.shrinkToFit();
    DdgRecords r = records();
    *this = Ddg();
    return r;
}

void
Ddg::compact()
{
    // Already in fromSlots form? Every edge id sits in exactly two
    // spans, so an arena of twice the edge slots has no slack and no
    // dead region.
    if (liveEdges_ == numEdgeSlots() &&
        arena_.size() == 2 * edges_.size()) {
        // Capacity slack only, except in arrays another graph still
        // shares (see CowArray::shrinkToFit).
        nodes_.shrinkToFit();
        edges_.shrinkToFit();
        arena_.shrinkToFit();
        slots_.shrinkToFit();
        return;
    }
    std::vector<DdgEdge> live;
    live.reserve(static_cast<std::size_t>(liveEdges_));
    for (const DdgEdge &e : edges_) {
        if (e.alive)
            live.push_back(e);
    }
    *this = fromSlots(nodes_.data(),
                      static_cast<std::uint32_t>(nodes_.size()),
                      live.data(), static_cast<std::uint32_t>(live.size()));
}

NodeId
Ddg::addNode(OpClass cls)
{
    if (cls >= OpClass::NumOpClasses)
        throw std::invalid_argument(
            "op class " + std::to_string(static_cast<int>(cls)) +
            " outside the op classes");
    const NodeId id = static_cast<NodeId>(nodes_.size());
    DdgNode n;
    n.cls = cls;
    n.semanticId = id;
    nodes_.push_back(n);
    slots_.push_back(detail::AdjSlot{});
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
    slots_.push_back(detail::AdjSlot{});
    ++liveNodes_;
    bumpGeneration();
    return id;
}

EdgeId
Ddg::addEdge(NodeId src, NodeId dst, EdgeKind kind, int distance,
             int mem_latency)
{
    // fromSlots' rules, before any write.
    for (const NodeId end : {src, dst}) {
        if (end < 0 || end >= numNodeSlots())
            throw std::invalid_argument(
                "endpoint " + std::to_string(end) +
                " outside the node array");
        if (!nodes_[end].alive)
            throw std::invalid_argument(
                "edge on dead node n" + std::to_string(end));
    }
    if (kind > EdgeKind::Spill)
        throw std::invalid_argument(
            "edge kind " + std::to_string(static_cast<int>(kind)) +
            " outside the edge kinds");
    if (distance < 0)
        throw std::invalid_argument(
            "negative edge distance " + std::to_string(distance));
    if (mem_latency < std::numeric_limits<std::int16_t>::min() ||
        mem_latency > std::numeric_limits<std::int16_t>::max())
        throw std::invalid_argument(
            "memory latency " + std::to_string(mem_latency) +
            " outside int16_t");
    if (kind == EdgeKind::RegFlow && !producesValue(nodes_[src].cls))
        throw std::invalid_argument(
            "flow edge from non-value-producing op n" +
            std::to_string(src));
    if (slots_[src].out == maxSpanSlots)
        throw std::invalid_argument(spanLimitRule(src, "out"));
    if (slots_[dst].in == maxSpanSlots)
        throw std::invalid_argument(spanLimitRule(dst, "in"));

    const EdgeId id = static_cast<EdgeId>(edges_.size());
    DdgEdge e;
    e.src = src;
    e.dst = dst;
    e.kind = kind;
    e.distance = distance;
    e.memLatency = static_cast<std::int16_t>(mem_latency);
    edges_.push_back(e);
    detail::AdjSlot *slots = slots_.writable();
    appendAdj(arena_, slots[src], id, false);
    appendAdj(arena_, slots[dst], id, true);
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
    const detail::AdjSlot &s = slots_[id];
    return LiveAdjRange(arena_, s.offset, s.in, edges_);
}

LiveAdjRange
Ddg::outEdges(NodeId id) const
{
    checkNode(id);
    const detail::AdjSlot &s = slots_[id];
    return LiveAdjRange(arena_, s.offset + s.in, s.out, edges_);
}

EdgeSpan
Ddg::inEdgesRaw(NodeId id) const
{
    cv_assert(id >= 0 && id < numNodeSlots(), "bad node id ", id);
    const detail::AdjSlot &s = slots_[id];
    return EdgeSpan(s.in ? arena_.data() + s.offset : nullptr, s.in);
}

EdgeSpan
Ddg::outEdgesRaw(NodeId id) const
{
    cv_assert(id >= 0 && id < numNodeSlots(), "bad node id ", id);
    const detail::AdjSlot &s = slots_[id];
    return EdgeSpan(s.out ? arena_.data() + s.offset + s.in : nullptr,
                    s.out);
}

FlowNeighborRange
Ddg::flowPreds(NodeId id) const
{
    checkNode(id);
    const detail::AdjSlot &s = slots_[id];
    return FlowNeighborRange(arena_, s.offset, s.in, edges_, true);
}

FlowNeighborRange
Ddg::flowSuccs(NodeId id) const
{
    checkNode(id);
    const detail::AdjSlot &s = slots_[id];
    return FlowNeighborRange(arena_, s.offset + s.in, s.out, edges_,
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
    return anyLiveCopy(nodes_);
}

const DdgNode &
DdgRecords::node(NodeId id) const
{
    cv_assert(id >= 0 && id < numNodeSlots(), "bad node id ", id);
    return nodes_[id];
}

const DdgEdge &
DdgRecords::edge(EdgeId id) const
{
    cv_assert(id >= 0 && id < numEdgeSlots(), "bad edge id ", id);
    return edges_[id];
}

bool
DdgRecords::hasCopies() const
{
    return anyLiveCopy(nodes_);
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
