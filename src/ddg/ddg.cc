#include "ddg/ddg.hh"

#include <atomic>
#include <limits>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

/**
 * Append @p id to @p slot in @p arena. Fast path: write into the
 * span's slack. Full span: relocate to fresh arena tail with doubled
 * capacity (amortized O(1)); the dead region left behind is never
 * reused, so stale views of the old location keep reading intact
 * pre-relocation data.
 */
void
appendAdj(detail::CowArray<EdgeId> &arena, detail::AdjSlot &slot,
          EdgeId id)
{
    if (slot.count == slot.capacity) {
        const std::uint32_t cap =
            slot.capacity ? 2 * slot.capacity : 4;
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
        slot.capacity = cap;
    }
    arena.writable()[slot.offset + slot.count++] = id;
}

} // namespace

std::uint64_t
Ddg::freshGeneration()
{
    // Process-unique stamps: runSuite compiles loops from several
    // threads, so the counter must be atomic. Relaxed is enough - the
    // stamp only needs uniqueness, not ordering.
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Ddg
Ddg::fromSlots(const std::vector<DdgNode> &nodes,
               const std::vector<DdgEdge> &edges, std::string_view labels)
{
    // Validate (the trusted path's documented preconditions), count
    // degrees, then share the layout code.
    const int node_slots = static_cast<int>(nodes.size());
    const std::uint64_t label_bytes = labels.size();
    for (int i = 0; i < node_slots; ++i) {
        cv_assert(nodes[i].semanticId >= 0 &&
                      nodes[i].semanticId < node_slots,
                  "semantic id outside the node array");
        // 64-bit sum: offset + len must not be able to wrap.
        cv_assert(static_cast<std::uint64_t>(nodes[i].labelOffset) +
                          nodes[i].labelLen <=
                      label_bytes,
                  "label slice outside the label arena");
    }
    std::vector<std::uint32_t> deg(2 * static_cast<std::size_t>(node_slots));
    std::uint32_t *in_deg = deg.data();
    std::uint32_t *out_deg = in_deg + node_slots;
    for (const DdgEdge &e : edges) {
        cv_assert(e.src >= 0 && e.src < node_slots && e.dst >= 0 &&
                      e.dst < node_slots,
                  "edge endpoint outside the node array");
        cv_assert(e.distance >= 0, "edge distance must be >= 0");
        if (e.alive) {
            cv_assert(nodes[e.src].alive && nodes[e.dst].alive,
                      "live edge on a dead node");
            if (e.kind == EdgeKind::RegFlow) {
                cv_assert(producesValue(nodes[e.src].cls),
                          "flow edge from non-value-producing op ",
                          labels.substr(nodes[e.src].labelOffset,
                                        nodes[e.src].labelLen));
            }
        }
        ++out_deg[e.src];
        ++in_deg[e.dst];
    }
    return fromSlotsTrusted(
        reinterpret_cast<const unsigned char *>(nodes.data()),
        static_cast<std::uint32_t>(nodes.size()),
        reinterpret_cast<const unsigned char *>(edges.data()),
        static_cast<std::uint32_t>(edges.size()), labels, in_deg,
        out_deg);
}

Ddg
Ddg::fromSlotsTrusted(const unsigned char *node_bytes,
                      std::uint32_t node_slots,
                      const unsigned char *edge_bytes,
                      std::uint32_t edge_slots, std::string_view labels,
                      const std::uint32_t *in_deg,
                      const std::uint32_t *out_deg)
{
    Ddg g;
    g.nodes_.append(node_bytes, node_slots);
    g.edges_.append(edge_bytes, edge_slots);
    g.labels_.append(labels.data(), labels.size());

    DdgNode *nodes = g.nodes_.writable();
    g.liveNodes_ = 0;
    for (std::uint32_t i = 0; i < node_slots; ++i) {
        DdgNode &n = nodes[i];
        n.id = static_cast<NodeId>(i);
        if (n.alive)
            ++g.liveNodes_;
    }

    // Exactly-sized arena: spans laid out back to back in node order
    // (in-span then out-span per node) with capacity == count (the
    // compact no-slack form), filled in edge-id order. Dead edge ids
    // stay in the spans; the views skip them.
    g.slots_.resize(2 * static_cast<std::size_t>(node_slots));
    detail::AdjSlot *slots = g.slots_.writable();
    std::uint32_t total = 0;
    for (std::uint32_t i = 0; i < node_slots; ++i) {
        slots[2 * i] = {total, 0, in_deg[i]};
        total += in_deg[i];
        slots[2 * i + 1] = {total, 0, out_deg[i]};
        total += out_deg[i];
    }
    g.arena_.resize(total);
    EdgeId *arena = g.arena_.writable();
    DdgEdge *edges = g.edges_.writable();
    g.liveEdges_ = 0;
    for (std::uint32_t i = 0; i < edge_slots; ++i) {
        DdgEdge &e = edges[i];
        e.id = static_cast<EdgeId>(i);
        if (e.alive)
            ++g.liveEdges_;
        detail::AdjSlot &out = slots[2 * e.src + 1];
        arena[out.offset + out.count++] = e.id;
        detail::AdjSlot &in = slots[2 * e.dst];
        arena[in.offset + in.count++] = e.id;
    }
    // One fresh stamp for the whole load (the constructor already
    // produced one; bulk loading is a single structural mutation).
    return g;
}

void
Ddg::compact()
{
    // Already at fromSlots density? arena_.size() == sum(count) holds
    // exactly when no span carries slack (capacity > count) and no
    // dead region was left behind by a relocation.
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
    for (const DdgNode &n : nodes_)
        pre_labels.emplace_back(n.alive ? label(n.id)
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
            s.capacity = s.count;
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
    for (const DdgNode &n : nodes_) {
        if (n.alive) {
            cv_assert(label(n.id) == pre_labels[n.id],
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
    n.id = id;
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

    DdgNode n;
    n.id = static_cast<NodeId>(nodes_.size());
    n.cls = cls;
    n.labelOffset = off;
    n.labelLen = original_len + suffix_len;
    n.semanticId = semantic;
    n.isReplica = true;
    nodes_.push_back(n);
    slots_.resize(slots_.size() + 2); // in-span, out-span
    ++liveNodes_;
    bumpGeneration();
    return n.id;
}

EdgeId
Ddg::addEdge(NodeId src, NodeId dst, EdgeKind kind, int distance,
             int mem_latency)
{
    checkNode(src);
    checkNode(dst);
    cv_assert(distance >= 0, "edge distance must be >= 0");
    if (kind == EdgeKind::RegFlow) {
        cv_assert(producesValue(nodes_[src].cls),
                  "flow edge from non-value-producing op ",
                  label(src));
    }

    DdgEdge e;
    e.id = static_cast<EdgeId>(edges_.size());
    e.src = src;
    e.dst = dst;
    e.kind = kind;
    e.distance = distance;
    e.memLatency = mem_latency;
    edges_.push_back(e);
    detail::AdjSlot *slots = slots_.writable();
    appendAdj(arena_, slots[2 * src + 1], e.id);
    appendAdj(arena_, slots[2 * dst], e.id);
    ++liveEdges_;
    bumpGeneration();
    return e.id;
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
