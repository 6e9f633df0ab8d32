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
               const DdgEdge *edges, std::uint32_t edge_slots,
               std::string_view labels)
{
    Ddg g;
    g.nodes_.append(nodes, node_slots);
    g.edges_.append(edges, edge_slots);
    g.labels_.append(labels.data(), labels.size());

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
        // 64-bit sum: offset + len must not be able to wrap.
        if (std::uint64_t{n.labelOffset} + n.labelLen > labels.size())
            rejectSlot("node", i,
                       "label slice outside the label arena");
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
    // Same test for the label arena: slices never overlap (interning
    // hands every node fresh bytes), so labels_.size() == the live
    // nodes' summed labelLen exactly when no byte is dead (tombstoned
    // node) or orphaned.
    std::size_t label_total = 0;
    for (const DdgNode &n : nodes_) {
        if (n.alive)
            label_total += n.labelLen;
    }
    const bool adj_dense = arena_.size() == adj_total;
    const bool labels_dense = labels_.size() == label_total;
    // Capacity slack goes last, except in arrays another graph still
    // shares (see CowArray::shrinkToFit).
    const auto trim = [this] {
        nodes_.shrinkToFit();
        edges_.shrinkToFit();
        arena_.shrinkToFit();
        slots_.shrinkToFit();
        labels_.shrinkToFit();
    };
    if (adj_dense && labels_dense) {
        trim();
        return;
    }

#ifndef NDEBUG
    // Adjacency must survive bit-for-bit: same edge ids, same order,
    // per span. Live labels likewise. Snapshot before repacking,
    // verify after. Deep copies: a sharing copy would keep the trim
    // below from dropping slack.
    const std::vector<EdgeId> pre_arena(arena_.begin(), arena_.end());
    const std::vector<detail::AdjSlot> pre_slots(slots_.begin(),
                                                 slots_.end());
    std::vector<std::string> pre_labels;
    pre_labels.reserve(nodes_.size());
    for (NodeId n = 0; n < numNodeSlots(); ++n)
        pre_labels.emplace_back(nodes_[n].alive ? label(n)
                                                : std::string_view());
#endif

    if (!adj_dense) {
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
    }

    if (!labels_dense) {
        // Live labels packed in node order; dead slots lose their
        // bytes and read back empty from now on (labels are
        // diagnostic-only, so this is the documented lossy effect).
        detail::CowArray<char> packed;
        packed.reserve(label_total);
        DdgNode *nodes = nodes_.writable();
        for (std::size_t k = 0; k < nodes_.size(); ++k) {
            DdgNode &n = nodes[k];
            if (!n.alive) {
                n.labelOffset = 0;
                n.labelLen = 0;
                continue;
            }
            const std::uint32_t off =
                static_cast<std::uint32_t>(packed.size());
            packed.append(labels_.data() + n.labelOffset, n.labelLen);
            n.labelOffset = off;
        }
        labels_ = std::move(packed);
    }

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
    for (NodeId n = 0; n < numNodeSlots(); ++n) {
        if (nodes_[n].alive) {
            cv_assert(label(n) == pre_labels[n],
                      "compact changed a live node's label");
        }
    }
#endif
    trim();
    // No generation bump: the graph's structure (nodes, edges,
    // traversal order) is untouched; only the storage layout moved.
}

std::uint32_t
Ddg::internLabel(std::string_view s)
{
    cv_assert(labels_.size() + s.size() <=
                  std::numeric_limits<std::uint32_t>::max(),
              "label arena overflow");
    const std::uint32_t off = static_cast<std::uint32_t>(labels_.size());
    // A view of our own arena (e.g. a label(id) passed straight back
    // in) is safe: an append that reallocates reads the source bytes
    // before it releases the old block.
    labels_.append(s.data(), s.size());
    return off;
}

NodeId
Ddg::addNode(OpClass cls, std::string_view label)
{
    const NodeId id = static_cast<NodeId>(nodes_.size());
    DdgNode n;
    n.cls = cls;
    if (label.empty()) {
        const std::string def = "n" + std::to_string(id);
        n.labelOffset = internLabel(def);
        n.labelLen = static_cast<std::uint32_t>(def.size());
    } else {
        n.labelOffset = internLabel(label);
        n.labelLen = static_cast<std::uint32_t>(label.size());
    }
    n.semanticId = id;
    nodes_.push_back(n);
    slots_.resize(slots_.size() + 2); // in-span, out-span
    ++liveNodes_;
    bumpGeneration();
    return id;
}

NodeId
Ddg::addReplica(NodeId original, std::string_view label_suffix)
{
    checkNode(original);
    // Read fields before any mutation: push_back may reallocate
    // nodes_ and interning may reallocate labels_, so neither a node
    // reference nor a label view survives the calls below.
    const OpClass cls = nodes_[original].cls;
    const NodeId semantic = nodes_[original].semanticId;
    const std::uint32_t original_len = nodes_[original].labelLen;
    const std::uint32_t suffix_len =
        static_cast<std::uint32_t>(label_suffix.size());
    // Synthesize "<original label><suffix>" directly in the arena:
    // two back-to-back appends yield one contiguous slice. Both
    // inputs may alias the arena (label(original) always does);
    // internLabel is alias-safe against its own append, but the
    // suffix view must additionally survive the *first* intern's
    // realloc - capture its arena offset now and re-derive after.
    const char *base = labels_.data();
    const bool suffix_aliases =
        !label_suffix.empty() && label_suffix.data() >= base &&
        label_suffix.data() + label_suffix.size() <=
            base + labels_.size();
    const std::size_t suffix_src =
        suffix_aliases
            ? static_cast<std::size_t>(label_suffix.data() - base)
            : 0;
    const std::uint32_t off = internLabel(label(original));
    if (suffix_aliases) {
        label_suffix =
            std::string_view(labels_.data() + suffix_src, suffix_len);
    }
    internLabel(label_suffix);

    const NodeId id = static_cast<NodeId>(nodes_.size());
    DdgNode n;
    n.cls = cls;
    n.labelOffset = off;
    n.labelLen = original_len + suffix_len;
    n.semanticId = semantic;
    n.isReplica = true;
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
                  "flow edge from non-value-producing op ",
                  label(src));
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

std::string_view
Ddg::label(NodeId id) const
{
    cv_assert(id >= 0 && id < numNodeSlots(), "bad node id ", id);
    const DdgNode &n = nodes_[id];
    return std::string_view(labels_.data() + n.labelOffset, n.labelLen);
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
    cv_assert(nodes_[id].alive, "dead node ", label(id));
}

void
Ddg::checkEdge(EdgeId id) const
{
    cv_assert(id >= 0 && id < numEdgeSlots(), "bad edge id ", id);
    cv_assert(edges_[id].alive, "dead edge ", id);
}

} // namespace cvliw
