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
appendAdj(std::vector<EdgeId> &arena, detail::AdjSlot &slot, EdgeId id,
          bool in_side)
{
    const std::size_t len = std::size_t{slot.in} + slot.out;
    const std::size_t end = slot.offset + len;
    if ((!in_side || slot.out == 0) && end < arena.size() &&
        arena[end] == invalidEdge) {
        arena[end] = id;
    } else {
        const std::size_t cap = len ? 2 * len : 4;
        cv_assert(arena.size() + cap <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "adjacency arena overflow");
        const std::uint32_t off =
            static_cast<std::uint32_t>(arena.size());
        arena.resize(arena.size() + cap, invalidEdge);
        // Pointers taken before resize would dangle: it may move the
        // arena.
        EdgeId *a = arena.data();
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
    r.nodes_ = detail::SharedArray<DdgNode>(nodes, node_slots);
    r.edges_ = detail::SharedArray<DdgEdge>(edges, edge_slots);

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
    // One stamp for the whole load: bulk loading is a single
    // structural mutation.
    r.generation_ = Ddg::freshGeneration();
    return r;
}

DdgRecords::DdgRecords(const Ddg &g)
    : DdgRecords(fromSlots(g.nodes_.data(),
                           static_cast<std::uint32_t>(g.nodes_.size()),
                           g.edges_.data(),
                           static_cast<std::uint32_t>(g.edges_.size())))
{
    generation_ = g.generation_;
}

void
DdgRecords::bumpGeneration()
{
    generation_ = Ddg::freshGeneration();
}

void
Ddg::buildAdjacency()
{
    // Span lengths, then each block's offset: blocks back to back in
    // node order with no slack (the compact form).
    slots_.assign(nodes_.size(), detail::AdjSlot{});
    for (const DdgEdge &e : edges_) {
        ++slots_[static_cast<std::size_t>(e.src)].out;
        ++slots_[static_cast<std::size_t>(e.dst)].in;
    }
    // Per-thread fill cursors, reused across conversions: [2v] for
    // node v's in-list, [2v + 1] for its out-list.
    thread_local std::vector<std::uint32_t> cur;
    cur.resize(2 * slots_.size());
    std::uint32_t total = 0;
    for (std::size_t v = 0; v < slots_.size(); ++v) {
        detail::AdjSlot &s = slots_[v];
        s.offset = total;
        cur[2 * v] = total;
        cur[2 * v + 1] = total + s.in;
        total += s.in + s.out;
    }
    // Each span in edge-id order. Dead edge ids stay in the spans; the
    // views skip them.
    arena_.resize(total);
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        const DdgEdge &e = edges_[i];
        arena_[cur[2 * static_cast<std::size_t>(e.src) + 1]++] =
            static_cast<EdgeId>(i);
        arena_[cur[2 * static_cast<std::size_t>(e.dst)]++] =
            static_cast<EdgeId>(i);
    }
}

Ddg::Ddg(const DdgRecords &records)
    : liveNodes_(records.liveNodes_), liveEdges_(records.liveEdges_),
      generation_(records.generation_)
{
    // Base records, then the appended ones, in exactly-sized arrays;
    // then the tombstoned base slots lose their alive flag.
    const std::size_t bn = records.nodes_.size();
    const std::size_t be = records.edges_.size();
    nodes_.reserve(bn + records.addedNodes());
    nodes_.assign(records.nodes_.begin(), records.nodes_.end());
    edges_.reserve(be + records.addedEdges());
    edges_.assign(records.edges_.begin(), records.edges_.end());
    if (records.delta_.size() != 0) {
        // The delta's records are bytes in 64-bit words: copy them
        // out, never read them through a record pointer.
        const auto append = [](auto &arr, const std::uint64_t *from,
                               std::size_t n) {
            if (n == 0)
                return;
            const std::size_t at = arr.size();
            arr.resize(at + n);
            std::memcpy(static_cast<void *>(arr.data() + at), from,
                        n * sizeof arr[0]);
        };
        const std::uint64_t *words = records.delta_.data();
        append(nodes_, words + 1, records.addedNodes());
        append(edges_, words + records.edgeWordsAt(), records.addedEdges());
        const std::uint64_t *bits = words + records.bitWordsAt();
        const auto removed = [bits](std::size_t b) {
            return (bits[b / 64] >> (b % 64)) & 1;
        };
        for (std::size_t i = 0; i < bn; ++i) {
            if (removed(i))
                nodes_[i].alive = false;
        }
        for (std::size_t j = 0; j < be; ++j) {
            if (removed(bn + j))
                edges_[j].alive = false;
        }
    }
    buildAdjacency();
}

DdgRecords
Ddg::freeze(const DdgRecords &base) &&
{
    const std::size_t bn = base.nodes_.size();
    const std::size_t be = base.edges_.size();

    // Slot i below the block's size must hold the block's record i,
    // alive or removed.
    bool any_removed = false;
    const auto diff = [&](const auto &mine, const auto &theirs,
                          const char *slot) {
        for (std::size_t i = 0; i < theirs.size(); ++i) {
            if (i >= mine.size() || !holdsRecord(theirs[i], mine[i])) {
                throw std::invalid_argument(
                    std::string("freeze: ") + slot + std::to_string(i) +
                    " does not hold its base's record");
            }
            any_removed |= theirs[i].alive && !mine[i].alive;
        }
    };
    diff(nodes_, base.nodes_, "node slot n");
    diff(edges_, base.edges_, "edge slot ");

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
        const std::size_t edges_at = 1 + DdgRecords::kNodeWords * added_nodes;
        const std::size_t bits_at =
            edges_at + DdgRecords::kEdgeWords * added_edges;
        const std::size_t bit_words = (bn + be + 63) / 64;
        const auto fill = [&](std::uint64_t *words) {
            words[0] = added_nodes | (std::uint64_t{added_edges} << 32);
            std::memcpy(words + 1, nodes_.data() + bn,
                        added_nodes * sizeof(DdgNode));
            auto *out = reinterpret_cast<unsigned char *>(words + edges_at);
            for (std::size_t j = be; j < edges_.size(); ++j) {
                if (edges_[j].alive) {
                    std::memcpy(out, &edges_[j], sizeof(DdgEdge));
                    out += sizeof(DdgEdge);
                }
            }
            // A bit per base slot, node slots first, set where this
            // graph removed the block's live record.
            std::uint64_t *bits = words + bits_at;
            std::fill_n(bits, bit_words, 0);
            const auto mark = [bits](std::size_t b) {
                bits[b / 64] |= std::uint64_t{1} << (b % 64);
            };
            for (std::size_t i = 0; i < bn; ++i) {
                if (base.nodes_[i].alive && !nodes_[i].alive)
                    mark(i);
            }
            for (std::size_t j = 0; j < be; ++j) {
                if (base.edges_[j].alive && !edges_[j].alive)
                    mark(bn + j);
            }
        };
        r.delta_ = detail::SharedArray<std::uint64_t>(bits_at + bit_words,
                                                      fill);
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
        nodes_.shrink_to_fit();
        edges_.shrink_to_fit();
        arena_.shrink_to_fit();
        slots_.shrink_to_fit();
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

    const EdgeId id = static_cast<EdgeId>(edges_.size());
    DdgEdge e;
    e.src = src;
    e.dst = dst;
    e.kind = kind;
    e.distance = distance;
    e.memLatency = static_cast<std::int16_t>(mem_latency);
    edges_.push_back(e);
    appendAdj(arena_, slots_[src], id, false);
    appendAdj(arena_, slots_[dst], id, true);
    ++liveEdges_;
    bumpGeneration();
    return id;
}

void
Ddg::removeNode(NodeId id)
{
    checkNode(id);
    for (EdgeId eid : inEdgesRaw(id)) {
        if (edges_[eid].alive) {
            edges_[eid].alive = false;
            --liveEdges_;
        }
    }
    for (EdgeId eid : outEdgesRaw(id)) {
        if (edges_[eid].alive) {
            edges_[eid].alive = false;
            --liveEdges_;
        }
    }
    nodes_[id].alive = false;
    --liveNodes_;
    bumpGeneration();
}

void
Ddg::removeEdge(EdgeId id)
{
    checkEdge(id);
    edges_[id].alive = false;
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
    return nodes_[id];
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
    return edges_[id];
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
