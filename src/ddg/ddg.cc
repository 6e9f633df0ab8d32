#include "ddg/ddg.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
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

/**
 * Per-thread span counters that fromSlots and conversions reuse: [2v]
 * for node v's in-list, [2v + 1] for its out-list.
 */
thread_local std::vector<std::uint32_t> spanCounts;

/**
 * Count each node's in- and out-edge slots of @p edges, dead edges
 * included, into spanCounts, and reject the first node, in node order
 * and in-list first, whose list passes Ddg::maxSpanSlots.
 */
void
countSpans(const DdgEdge *edges, std::uint32_t edge_slots,
           std::size_t node_slots)
{
    spanCounts.assign(2 * node_slots, 0);
    std::uint32_t *cur = spanCounts.data();
    for (std::uint32_t i = 0; i < edge_slots; ++i) {
        ++cur[2 * static_cast<std::size_t>(edges[i].src) + 1];
        ++cur[2 * static_cast<std::size_t>(edges[i].dst)];
    }
    // Checked once per node, not once per edge.
    for (std::size_t v = 0; v < node_slots; ++v) {
        const bool in_over = cur[2 * v] > Ddg::maxSpanSlots;
        if (in_over || cur[2 * v + 1] > Ddg::maxSpanSlots) {
            rejectSpanLimit(edges, edge_slots, static_cast<NodeId>(v),
                            in_over);
        }
    }
}

/**
 * Does @p now hold record @p was, alive or removed? Every field must
 * match but `alive`, which @p now may have cleared and not set.
 */
template <typename Record>
bool
holdsRecord(const Record &was, Record now)
{
    if (now.alive && !was.alive)
        return false;
    now.alive = was.alive;
    return std::memcmp(&was, &now, sizeof now) == 0;
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

DdgRecords
DdgRecords::fromSlots(const DdgNode *nodes, std::uint32_t node_slots,
                      const DdgEdge *edges, std::uint32_t edge_slots)
{
    DdgRecords r;
    r.nodes_.append(nodes, node_slots);
    r.edges_.append(edges, edge_slots);

    // The rules are checked on the records' own copies; a throw
    // discards them with the records.
    for (std::uint32_t i = 0; i < node_slots; ++i) {
        const DdgNode &n = r.nodes_[i];
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
        r.liveNodes_ += n.alive;
    }

    // The edge rules, row by row, then the span limit.
    for (std::uint32_t i = 0; i < edge_slots; ++i) {
        const DdgEdge &e = r.edges_[i];
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
            if (!r.nodes_[e.src].alive || !r.nodes_[e.dst].alive)
                rejectSlot("edge", i, "live edge on a dead node");
            if (e.kind == EdgeKind::RegFlow &&
                !producesValue(r.nodes_[e.src].cls)) {
                rejectSlot("edge", i,
                           "flow edge from a non-value-producing op");
            }
        }
        r.liveEdges_ += e.alive;
    }
    countSpans(r.edges_.data(), edge_slots, node_slots);
    // One stamp for the whole load: bulk loading is a single
    // structural mutation.
    r.generation_ = Ddg::freshGeneration();
    return r;
}

DdgRecords::DdgRecords(const Ddg &g)
    : nodes_(g.nodes_), edges_(g.edges_), liveNodes_(g.liveNodes_),
      liveEdges_(g.liveEdges_), generation_(g.generation_)
{
}

void
DdgRecords::bumpGeneration()
{
    generation_ = Ddg::freshGeneration();
}

void
Ddg::buildAdjacency()
{
    // Two counters per node, then two cursors.
    const std::size_t node_slots = nodes_.size();
    countSpans(edges_.data(), static_cast<std::uint32_t>(edges_.size()),
               node_slots);
    std::uint32_t *cur = spanCounts.data();

    // Exactly-sized arena: blocks back to back in node order with no
    // slack (the compact form), each span filled in edge-id order.
    // Dead edge ids stay in the spans; the views skip them.
    slots_.resize(node_slots);
    detail::AdjSlot *slots = slots_.writable();
    std::uint32_t total = 0;
    for (std::size_t v = 0; v < node_slots; ++v) {
        const std::uint32_t in = cur[2 * v], out = cur[2 * v + 1];
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
    : liveNodes_(records.liveNodes_), liveEdges_(records.liveEdges_),
      generation_(records.generation_)
{
    if (records.delta_.size() == 0) {
        nodes_ = records.nodes_;
        edges_ = records.edges_;
    } else {
        // Base records, then the appended ones, in exactly-sized
        // arrays; then the tombstoned base slots lose their alive flag.
        const std::size_t bn = records.nodes_.size();
        const std::size_t be = records.edges_.size();
        const std::size_t an = records.addedNodes();
        const std::size_t ae = records.addedEdges();
        const std::uint64_t *words = records.delta_.data();
        nodes_.reserve(bn + an);
        nodes_.append(records.nodes_.data(), bn);
        nodes_.append(reinterpret_cast<const DdgNode *>(words + 1), an);
        edges_.reserve(be + ae);
        edges_.append(records.edges_.data(), be);
        edges_.append(reinterpret_cast<const DdgEdge *>(
                          words + records.edgeWordsAt()),
                      ae);
        const std::uint64_t *bits = words + records.bitWordsAt();
        const auto removed = [bits](std::size_t b) {
            return (bits[b / 64] >> (b % 64)) & 1;
        };
        DdgNode *nodes = nodes_.writable();
        for (std::size_t i = 0; i < bn; ++i) {
            if (removed(i))
                nodes[i].alive = false;
        }
        DdgEdge *edges = edges_.writable();
        for (std::size_t j = 0; j < be; ++j) {
            if (removed(bn + j))
                edges[j].alive = false;
        }
    }
    buildAdjacency();
}

DdgRecords
Ddg::freeze(const Ddg &base) &&
{
    const std::size_t bn = base.nodes_.size();
    const std::size_t be = base.edges_.size();

    // Tombstone bits, base node slots first, in a per-thread scratch
    // until the delta block's size is known.
    thread_local std::vector<std::uint64_t> bits;
    bits.assign((bn + be + 63) / 64, 0);
    bool any_removed = false;

    // Slot i below the base's count must hold base record i, alive or
    // removed; bit `first + i` marks a removed one. An array this
    // graph still shares with the base holds the base's records.
    const auto diff = [&](const auto &mine, const auto &theirs,
                          std::size_t first, const char *slot) {
        if (mine.data() == theirs.data())
            return;
        for (std::size_t i = 0; i < theirs.size(); ++i) {
            if (i >= mine.size() || !holdsRecord(theirs[i], mine[i])) {
                throw std::invalid_argument(
                    std::string("freeze: ") + slot + std::to_string(i) +
                    " does not hold its base's record");
            }
            if (theirs[i].alive && !mine[i].alive) {
                const std::size_t b = first + i;
                bits[b / 64] |= std::uint64_t{1} << (b % 64);
                any_removed = true;
            }
        }
    };
    diff(nodes_, base.nodes_, 0, "node slot n");
    diff(edges_, base.edges_, bn, "edge slot ");

    std::size_t added_edges = 0;
    for (std::size_t j = be; j < edges_.size(); ++j)
        added_edges += edges_[j].alive;
    const std::size_t added_nodes = nodes_.size() - bn;

    DdgRecords r;
    r.nodes_ = base.nodes_;
    r.edges_ = base.edges_;
    r.liveNodes_ = liveNodes_;
    r.liveEdges_ = liveEdges_;
    r.generation_ = generation_;
    if (added_nodes || added_edges || any_removed) {
        cv_assert(added_nodes <= UINT32_MAX && added_edges <= UINT32_MAX,
                  "delta counts overflow");
        r.delta_.resize(1 + DdgRecords::kNodeWords * added_nodes +
                        DdgRecords::kEdgeWords * added_edges +
                        bits.size());
        std::uint64_t *words = r.delta_.writable();
        words[0] = added_nodes | (std::uint64_t{added_edges} << 32);
        std::memcpy(words + 1, nodes_.data() + bn,
                    added_nodes * sizeof(DdgNode));
        auto *out =
            reinterpret_cast<unsigned char *>(words + r.edgeWordsAt());
        for (std::size_t j = be; j < edges_.size(); ++j) {
            if (edges_[j].alive) {
                std::memcpy(out, &edges_[j], sizeof(DdgEdge));
                out += sizeof(DdgEdge);
            }
        }
        std::copy(bits.begin(), bits.end(), words + r.bitWordsAt());
    }
    *this = Ddg();
    return r;
}

void
Ddg::compact()
{
    // Already in the converted form? Every edge id sits in exactly two
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
    *this = Ddg(DdgRecords::fromSlots(
        nodes_.data(), static_cast<std::uint32_t>(nodes_.size()),
        live.data(), static_cast<std::uint32_t>(live.size())));
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
    // DdgRecords::fromSlots' rules, before any write.
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

std::size_t
DdgRecords::ownedBytes() const
{
    if (delta_.size() == 0)
        return 0;
    return sizeof(DdgNode) * addedNodes() +
           sizeof(DdgEdge) * addedEdges() +
           8 * (delta_.size() - bitWordsAt());
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
