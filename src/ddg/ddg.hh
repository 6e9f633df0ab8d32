/**
 * @file
 * Data dependence graph (DDG) of a software-pipelineable loop body.
 *
 * Nodes are operations; edges are either register-flow dependences
 * (the consumer reads the value the producer defines) or memory
 * ordering dependences through the centralized cache. Every edge
 * carries an iteration distance: distance 0 is intra-iteration,
 * distance d > 0 means the consumer uses the value produced d
 * iterations earlier (a recurrence when it closes a cycle).
 *
 * The graph is mutable because both the scheduler (copy insertion)
 * and the replication algorithm (replicas, dead-code removal) edit it;
 * removal uses tombstones so node ids stay stable.
 *
 * ## Record sizes
 *
 * DDG storage is most of the heap, so its records hold no redundant
 * bytes. No record has an id field (an id is its slot index) and no
 * node has a name: diagnostics call node v "n<v>". `DdgNode` is 8
 * bytes, `DdgEdge` 16, and a node's adjacency block 12: a 4-byte
 * offset and two 4-byte span lengths (see below). A node slot thus
 * costs 20 bytes and an edge slot 24 (the record plus its id in two
 * spans), plus arena slack. A `Ddg` is its four `std::vector`s, two
 * live counts and the generation stamp; a `DdgRecords` handle is 64
 * bytes: its base's two record-block handles, one delta-block handle,
 * two live counts and the stamp (see "Graphs at rest").
 * static_asserts pin all five sizes.
 *
 * ## Adjacency arena (CSR layout)
 *
 * Per-node adjacency is not stored as one heap vector per node but as
 * one flat `EdgeId` arena owned by the graph plus one block per node,
 * `{offset, in, out}`: the node's in-list is the arena span
 * [offset, offset + in) and its out-list follows it at
 * [offset + in, offset + in + out). Contiguity is the point: every
 * compile pass iterates adjacency millions of times, and one arena
 * per graph replaces ~80 small allocations per loop with two, keeps a
 * node's two lists on the same cache line, and copies adjacency as
 * two flat memcpys.
 *
 * Arena invariants and growth rules:
 *  - a span's ids are stored contiguously in insertion (edge-creation)
 *    order; tombstoned edge ids stay in place and are skipped by the
 *    filtering views;
 *  - the growth rule: `addEdge` writes an out-edge in place while the
 *    arena entry just past the block is `invalidEdge` (slack), and an
 *    in-edge in place only while the out-list is also empty (the
 *    block's end is then the in-list's end). Otherwise the whole block
 *    relocates to fresh arena tail, twice its length (4 if empty),
 *    with the new id inside its span and the rest filled with
 *    `invalidEdge`. Out-edges grow in amortized O(1); an in-edge to a
 *    node that has out-edges copies its block;
 *  - every region (a block's extent, live or left behind by a
 *    relocation) starts with a valid edge id, so an `invalidEdge` past
 *    a block's end is always that block's own slack. A dead region is
 *    never reused or rewritten, so stale views still read valid,
 *    pre-relocation data;
 *  - the conversion from records, `Ddg(const DdgRecords &)`, builds
 *    an exactly-sized arena (blocks back to back in node order, no
 *    slack, no relocation ever happened) - the compact layout every
 *    compile's input starts from: a suite loop rests as the records
 *    of one `DdgRecords::fromSlots` call (workloads/generator.hh), and
 *    each compile converts them;
 *  - the arena only ever grows; `removeNode`/`removeEdge` tombstone
 *    edges but never move blocks. The one exception is an explicit
 *    `compact()` call, which rebuilds the graph from its live edges
 *    (and invalidates outstanding views and edge ids; see its
 *    comment). No compile pass compacts.
 *
 * ## Traversal views
 *
 * The traversal accessors (`nodes()`, `edges()`, `inEdges()`,
 * `outEdges()`, `flowPreds()`, `flowSuccs()`) return lightweight,
 * zero-allocation ranges that skip tombstones in place. They are the
 * hot path of the whole pipeline: the scheduler, the partitioner and
 * the analyses traverse the graph millions of times per compile, so
 * none of them may allocate.
 *
 * View validity: an adjacency view addresses the arena through the
 * graph object (the vector inside it) and snapshots the viewed span's
 * bounds at creation. It therefore stays valid - never dangles -
 * across every mutation short of destroying/moving the graph or
 * compacting it (no compile pass compacts, so a view taken inside
 * compile() survives every mutation there): tombstoning
 * (`removeNode`/`removeEdge`), `addNode`/`addReplica`, and `addEdge`
 * anywhere (an append to the node's other list included, even when
 * it relocates the block or reallocates the arena). The one staleness
 * rule: a view taken before an `addEdge` that appends to the *viewed*
 * list keeps observing the pre-insertion snapshot (it misses newer
 * edges; if the block relocated it reads the intact dead region).
 * Take a fresh view after growing the list you iterate.
 *
 * The raw-span accessors (`inEdgesRaw()`/`outEdgesRaw()`) are the
 * no-filter fast path for read-only kernels: they yield the whole
 * span (tombstones included) as a borrowed pointer range, so the
 * caller merges the `alive` check into the edge fetch it already
 * does. Unlike the views they borrow arena storage directly and are
 * invalidated by any subsequent mutation (arena growth may move the
 * storage); never hold one across a mutation.
 *
 * ## Storage: graphs own, records share
 *
 * A Ddg owns its four arrays (nodes, edges, adjacency arena and
 * blocks), each a `std::vector`: a copy is a deep copy, O(V + E),
 * and no two graphs share a byte, so a write through `node()` or
 * `edge()` changes its own graph alone, whatever copies were taken.
 * Sharing lives in `DdgRecords` alone (see "Graphs at rest"): each of
 * its blocks is written once, when it is made, and then only read,
 * so records copy in O(1), from any number of threads at once, by an
 * atomic reference-count bump (`detail::SharedArray`).
 *
 * ## Graphs at rest
 *
 * A graph that is kept but not traversed is a `DdgRecords`: node and
 * edge records without adjacency. A graph being compiled or traversed
 * is a `Ddg`. Two kinds of graph rest:
 *  - a suite loop (`Loop::ddg`, workloads/generator.hh), from one
 *    `DdgRecords::fromSlots` call, which checks the slot rules and
 *    builds no adjacency. Its records are their own base and own
 *    nothing;
 *  - a compile result's final graph: nothing in the pipeline
 *    traverses it after compile() returns, so `Ddg::freeze` turns it
 *    into records held as a base plus a delta.
 *
 * compile() takes its input's records (`const DdgRecords &`): every
 * compile, on the client or on a pool worker, converts them once and
 * freezes its result against them. A compiled loop is mostly its
 * input, so a result's base is the input's node and edge blocks,
 * shared (a result keeps its input's blocks alive), and its delta is
 * one block that holds only what the compile added:
 *  - the appended node records (replicas, copies, spill code);
 *  - the appended live edges;
 *  - one tombstone bit per input node and edge slot, set where the
 *    compile removed a live input slot.
 *
 * Ids follow the base: no compile pass renumbers its work graph, so
 * the compiled graph's first slots are the input's, and `Ddg::freeze`
 * diffs them by position (see its comment). Node ids are the compiled
 * graph's (the input's slots, then the appended ones), so a result's
 * partition and schedule index the records directly; an input edge
 * keeps its input id, and the appended live edges follow the input's
 * edge slots densely. The live node and edge sequences, in id order,
 * are the compiled graph's. A changed result's dead edge slots are
 * thus input slots, the input's own and those the compile removed; a
 * dead appended node slot is a node the compile added and removed
 * again (a replica that replication's dead-code sweep removed), which
 * keeps its id.
 * Records without a delta (a suite loop, an unchanged result) own
 * nothing. `ownedBytes()` counts what records hold that their base
 * does not share. The delta block has one writer, `Ddg::freeze`, and
 * one reader, the conversion back to a Ddg: records offer counts and
 * a stamp, and a reader of a node or edge record converts.
 * `DdgRecords(const Ddg &)`, implicit, copies a graph's records as
 * they stand into two fresh blocks, tombstones and stamp kept, and
 * checks them against `fromSlots`' rules, so a hand-built graph
 * passes straight to compile() or becomes a job's input.
 *
 * A reader that traverses converts the records back to a Ddg:
 * `Ddg(const DdgRecords &)` is implicit, so a result's `finalDdg`
 * passes straight to `checkSchedule`, `simulate` or `KernelView`. A
 * conversion materializes base and delta into exactly-sized arrays,
 * keeps the stamp, and builds an exactly-sized arena and block array:
 * O(V + E) in four allocations. The converted graph is a temporary: a
 * `const Ddg &` bound to it inside a call is fine, but one kept past
 * the full expression dangles. Convert into a named `Ddg` to keep it
 * or to traverse it more than once (`ReferenceInterpreter` and
 * `PseudoScratch::bind`, which keep a reference, delete their records
 * overloads for that reason).
 *
 * ## Generation counter
 *
 * `generation()` returns a stamp that changes on every structural
 * mutation (`addNode` / `addReplica` / `addEdge` / `removeNode` /
 * `removeEdge`, and a `compact()` that renumbers edges). Stamps are
 * process-unique, and a copy starts with its source's, so the stamp
 * tells whether a copy has changed since it was taken: compile()
 * reads it to see whether its work copy is still the input (whose
 * analysis it already holds). Records from `DdgRecords::fromSlots`
 * get a fresh stamp; records of a graph, frozen or as they stand,
 * keep its stamp, and a conversion keeps the records' stamp. The
 * pipeline's passes change a work copy only through the structural
 * mutators. Field writes through the non-const `node()` / `edge()`
 * accessors do not advance the stamp, and need not: nothing caches a
 * result under it, so callers have no rule to follow.
 * `DdgRecords::bumpGeneration()` forces a new stamp on records; no
 * library code needs it, and it stays because the compile benchmark
 * calls it on its suite loops.
 */

#ifndef CVLIW_DDG_DDG_HH
#define CVLIW_DDG_DDG_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "machine/config.hh"
#include "machine/op_class.hh"

namespace cvliw
{

using NodeId = int;
using EdgeId = int;

constexpr NodeId invalidNode = -1;
constexpr EdgeId invalidEdge = -1;

/** Dependence kind. */
enum class EdgeKind : std::uint8_t
{
    RegFlow, //!< register value flows producer -> consumer
    Memory,  //!< ordering through the centralized memory
    /**
     * Spill slot: the value flows store -> reload through memory.
     * Carries the value (the simulator follows it) but occupies no
     * register, which is the whole point of spilling.
     */
    Spill
};

/**
 * One dependence edge. A 16-byte trivially-copyable POD, so a graph
 * copies whole edge arrays as flat buffers.
 */
struct DdgEdge
{
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    int distance = 0;            //!< iteration distance (>= 0)
    std::int16_t memLatency = 1; //!< latency for Memory edges only
    EdgeKind kind = EdgeKind::RegFlow;
    bool alive = true;
};

static_assert(std::is_trivially_copyable_v<DdgEdge>,
              "DdgEdge must stay a POD (bulk graph copies)");
static_assert(sizeof(DdgEdge) == 16, "no padding, no id field");

/**
 * One operation: an 8-byte trivially-copyable POD, like DdgEdge.
 * The four flags are 1-bit fields of one byte (the rest of the byte
 * is zero).
 */
struct DdgNode
{
    // C++17 bit-fields take no default member initializers.
    DdgNode() : isReplica(), isSpill(), liveOut(), alive(true), flagPad_() {}

    /**
     * Identity of the computation this node performs. Replicas share
     * the semanticId of the instruction they duplicate, so the
     * functional simulator can check that a replica computes exactly
     * the original value.
     */
    NodeId semanticId = invalidNode;
    OpClass cls = OpClass::IntAlu;
    bool isReplica : 1;
    /** True for spill stores and spill reloads (identity value). */
    bool isSpill : 1;
    /**
     * True when the value is consumed after the loop (e.g. a
     * reduction result). Live-out instructions are never deleted by
     * the post-replication dead-code removal.
     */
    bool liveOut : 1;
    bool alive : 1;
    std::uint8_t flagPad_ : 4;     //!< explicit zeroed flag-byte tail
    std::uint8_t pad_[2] = {0, 0}; //!< explicit zeroed tail padding
};

static_assert(std::is_trivially_copyable_v<DdgNode>,
              "DdgNode must stay a POD (bulk graph copies)");
static_assert(sizeof(DdgNode) == 8, "no id field, packed flags");

class Ddg;

namespace detail
{

/**
 * Immutable, reference-counted array of trivially copyable elements:
 * the storage of `DdgRecords` (see "Storage" in the file comment). A
 * block is filled once, when it is made, and only read after; a copy
 * shares it and bumps its atomic reference count, from any thread.
 * The handle holds the element pointer itself (the count sits in a
 * header just before the elements), so a read costs what a
 * std::vector read costs.
 */
template <typename T>
class SharedArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SharedArray elements are written as raw bytes");

  public:
    SharedArray() = default;

    /**
     * A block of @p n elements, written once by @p fill, which gets
     * the (uninitialized) elements' pointer and must write all @p n.
     */
    template <typename Fill>
    SharedArray(std::size_t n, Fill &&fill) : SharedArray(n)
    {
        if (n)
            fill(data_);
    }

    /** A block holding a copy of the @p n elements at @p src. */
    SharedArray(const T *src, std::size_t n)
        : SharedArray(n, [&](T *dst) {
              std::memcpy(static_cast<void *>(dst), src, n * sizeof(T));
          })
    {
    }

    SharedArray(const SharedArray &o) noexcept
        : data_(o.data_), size_(o.size_)
    {
        if (data_)
            refs(data_).fetch_add(1, std::memory_order_relaxed);
    }
    SharedArray(SharedArray &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {
    }
    SharedArray &operator=(SharedArray o) noexcept
    {
        std::swap(data_, o.data_);
        std::swap(size_, o.size_);
        return *this;
    }
    ~SharedArray()
    {
        // Acquire-release: every sharer's reads of the block happen
        // before the last one frees it.
        if (data_ &&
            refs(data_).fetch_sub(1, std::memory_order_acq_rel) == 1) {
            ::operator delete(reinterpret_cast<unsigned char *>(data_) -
                              kHeader);
        }
    }

    std::size_t size() const { return size_; }
    const T *data() const { return data_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    const T &operator[](std::size_t i) const { return data_[i]; }

  private:
    using Count = std::atomic<std::size_t>;
    static constexpr std::size_t kHeader = sizeof(Count);
    static_assert(alignof(T) <= alignof(Count),
                  "elements follow the count header unpadded");

    static Count &refs(T *data)
    {
        return *std::launder(reinterpret_cast<Count *>(
            reinterpret_cast<unsigned char *>(data) - kHeader));
    }

    /** An unfilled block of @p n elements, count 1; none for n = 0. */
    explicit SharedArray(std::size_t n) : size_(n)
    {
        if (n == 0)
            return;
        auto *raw = static_cast<unsigned char *>(
            ::operator new(kHeader + n * sizeof(T)));
        new (raw) Count(1);
        data_ = reinterpret_cast<T *>(raw + kHeader);
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
};

/**
 * One node's adjacency block inside the arena: the in-span at
 * [offset, offset + in), the out-span right after it (growth follows
 * the rule in the file comment).
 */
struct AdjSlot
{
    std::uint32_t offset = 0;
    std::uint32_t in = 0;
    std::uint32_t out = 0;
};

static_assert(sizeof(AdjSlot) == 12, "one 12-byte block per node");

/**
 * The one skip-filtering forward range behind every traversal view.
 * A `Policy` describes a raw position space plus what to keep and
 * what each kept position yields:
 *
 *  - `value_type`                        - element type produced
 *  - `std::size_t limit() const`         - one past the last position
 *  - `bool admit(std::size_t) const`     - keep this position?
 *  - `value_type project(std::size_t) const` - element at a position
 *
 * The range and its iterators hold the policy by value (policies are
 * a couple of pointers), skip rejected positions in place and never
 * allocate. Concrete views (`LiveIdRange`, `LiveAdjRange`,
 * `FlowNeighborRange`) are thin policy bindings over this template.
 */
template <typename Policy>
class SkipFilterRange
{
  public:
    using value_type = typename Policy::value_type;

    class iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = typename Policy::value_type;
        using difference_type = std::ptrdiff_t;
        using pointer = const value_type *;
        using reference = value_type;

        iterator() = default;
        iterator(const Policy &policy, std::size_t i)
            : policy_(policy), i_(i)
        {
            skip();
        }

        value_type operator*() const { return policy_.project(i_); }
        iterator &operator++()
        {
            ++i_;
            skip();
            return *this;
        }
        iterator operator++(int)
        {
            iterator t = *this;
            ++*this;
            return t;
        }
        bool operator==(const iterator &o) const { return i_ == o.i_; }
        bool operator!=(const iterator &o) const { return i_ != o.i_; }

      private:
        void skip()
        {
            while (i_ < policy_.limit() && !policy_.admit(i_))
                ++i_;
        }

        Policy policy_{};
        std::size_t i_ = 0;
    };

    explicit SkipFilterRange(const Policy &policy) : policy_(policy) {}

    iterator begin() const { return iterator(policy_, 0); }
    iterator end() const { return iterator(policy_, policy_.limit()); }
    bool empty() const { return begin() == end(); }

    /** Number of admitted elements; O(raw length). */
    std::size_t size() const
    {
        std::size_t n = 0;
        for (auto it = begin(); it != end(); ++it)
            ++n;
        return n;
    }

    /** First element; the range must be non-empty. */
    value_type front() const { return *begin(); }

    /** Materialize (for callers that need ownership, e.g. tests). */
    std::vector<value_type> toVector() const
    {
        return std::vector<value_type>(begin(), end());
    }

  private:
    Policy policy_;
};

/** Live slots of a dense tombstoned entity array, projected to ids. */
template <typename Entity, typename Id>
struct LiveSlotPolicy
{
    using value_type = Id;

    const std::vector<Entity> *arr = nullptr;

    std::size_t limit() const { return arr->size(); }
    bool admit(std::size_t i) const { return (*arr)[i].alive; }
    Id project(std::size_t i) const { return static_cast<Id>(i); }
};

/**
 * Live edge ids of one adjacency span. The arena is addressed through
 * the graph's vector (not a raw pointer) so the policy survives arena
 * reallocation; the span bounds are a snapshot taken at creation.
 */
struct LiveAdjPolicy
{
    using value_type = EdgeId;

    const std::vector<EdgeId> *arena = nullptr;
    const std::vector<DdgEdge> *edges = nullptr;
    std::uint32_t offset = 0;
    std::uint32_t count = 0;

    std::size_t limit() const { return count; }
    bool admit(std::size_t i) const
    {
        return (*edges)[(*arena)[offset + i]].alive;
    }
    EdgeId project(std::size_t i) const { return (*arena)[offset + i]; }
};

/**
 * Live register-flow neighbours across one adjacency span: the edge's
 * src (producers, over an in-span) or dst (consumers, over an
 * out-span).
 */
struct FlowNeighborPolicy
{
    using value_type = NodeId;

    const std::vector<EdgeId> *arena = nullptr;
    const std::vector<DdgEdge> *edges = nullptr;
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
    bool srcSide = false;

    std::size_t limit() const { return count; }
    bool admit(std::size_t i) const
    {
        const DdgEdge &e = (*edges)[(*arena)[offset + i]];
        return e.alive && e.kind == EdgeKind::RegFlow;
    }
    NodeId project(std::size_t i) const
    {
        const DdgEdge &e = (*edges)[(*arena)[offset + i]];
        return srcSide ? e.src : e.dst;
    }
};

} // namespace detail

/**
 * Forward range over the live ids of a dense tombstoned entity array
 * (nodes_ or edges_). Allocation-free: iteration skips dead slots in
 * place.
 */
template <typename Entity, typename Id>
class LiveIdRange
    : public detail::SkipFilterRange<detail::LiveSlotPolicy<Entity, Id>>
{
  public:
    explicit LiveIdRange(const std::vector<Entity> &arr)
        : detail::SkipFilterRange<detail::LiveSlotPolicy<Entity, Id>>(
              detail::LiveSlotPolicy<Entity, Id>{&arr})
    {
    }
};

using LiveNodeRange = LiveIdRange<DdgNode, NodeId>;
using LiveEdgeRange = LiveIdRange<DdgEdge, EdgeId>;

/**
 * Forward range over the live edge ids of one node's adjacency span,
 * skipping tombstoned edges in place without allocating.
 */
class LiveAdjRange
    : public detail::SkipFilterRange<detail::LiveAdjPolicy>
{
  public:
    LiveAdjRange(const std::vector<EdgeId> &arena,
                 std::uint32_t offset, std::uint32_t count,
                 const std::vector<DdgEdge> &edges)
        : detail::SkipFilterRange<detail::LiveAdjPolicy>(
              detail::LiveAdjPolicy{&arena, &edges, offset, count})
    {
    }
};

/**
 * Forward range over the register-flow neighbours of one node: the
 * producers feeding it (`src` side of its in-span) or the consumers
 * reading it (`dst` side of its out-span). Skips tombstoned and
 * non-RegFlow edges in place.
 */
class FlowNeighborRange
    : public detail::SkipFilterRange<detail::FlowNeighborPolicy>
{
  public:
    FlowNeighborRange(const std::vector<EdgeId> &arena,
                      std::uint32_t offset, std::uint32_t count,
                      const std::vector<DdgEdge> &edges,
                      bool src_side)
        : detail::SkipFilterRange<detail::FlowNeighborPolicy>(
              detail::FlowNeighborPolicy{&arena, &edges, offset, count,
                                         src_side})
    {
    }
};

/**
 * Borrowed raw adjacency span: every incident edge id of one node in
 * insertion order, tombstoned edges included. The fast path for
 * read-only kernels, which merge the `alive` (and kind) filter into
 * the edge fetch they already perform instead of paying the filtering
 * view's extra indirections. Borrows arena storage directly: any
 * subsequent `addEdge` may reallocate the arena, so never hold an
 * EdgeSpan across a mutation.
 */
class EdgeSpan
{
  public:
    EdgeSpan(const EdgeId *data, std::uint32_t size)
        : data_(data), size_(size)
    {
    }

    const EdgeId *begin() const { return data_; }
    const EdgeId *end() const { return data_ + size_; }
    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    EdgeId operator[](std::uint32_t i) const { return data_[i]; }

  private:
    const EdgeId *data_;
    std::uint32_t size_;
};

/**
 * Slot arrays that break one of `DdgRecords::fromSlots`' structural
 * rules; what() names the rule and the row, e.g. "edge record row 2:
 * negative distance".
 */
class DdgSlotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A graph's node and edge records without its adjacency, as a shared
 * base plus an owned delta: a graph at rest, such as a suite loop or
 * what a compile result keeps of its final graph (see "Graphs at
 * rest" in the file comment). It offers Ddg's counts and stamp; a
 * reader of its records or a traversal needs a Ddg, which converts
 * from it implicitly. `fromSlots` makes a loop's records,
 * `Ddg::freeze` a result's, and the constructor from a Ddg a
 * hand-built graph's; a default-constructed one is the empty graph,
 * with stamp 0, which no Ddg has.
 */
class DdgRecords
{
  public:
    DdgRecords() = default;

    /**
     * The records of @p g as they stand: `fromSlots` on its node and
     * edge arrays, so two fresh blocks with its tombstones and live
     * counts, checked against the slot rules, and no delta (they own
     * nothing), keeping @p g's stamp. Implicit, so a hand-built graph
     * passes straight to compile(); O(V + E).
     * @throws DdgSlotError as fromSlots does, which only a graph whose
     *         fields were written through `node()`/`edge()` can meet
     */
    DdgRecords(const Ddg &g);

    /**
     * Records from fully-described slot arrays, in one step: one
     * generation stamp and exactly-sized arrays, each copied once, so
     * a caller can reuse its buffers for the next graph (the workload
     * generator does). Ids are the slot indices. No adjacency is
     * built; a conversion to a Ddg lists each node's incident edge ids
     * in edge-id order, exactly the state an addNode/addEdge/remove*
     * replay would produce, so a graph rebuilt from another graph's
     * slots is field-identical to it.
     *
     * The slots are checked against seven structural rules: an op
     * class below `OpClass::NumOpClasses` (the pipeline indexes
     * tables by op class), a semantic id inside the node array, an
     * edge kind no greater than `EdgeKind::Spill`, edge endpoints
     * inside the node array, a distance >= 0, no live edge on a dead
     * node, and no flow edge from an op that produces no value.
     * @throws DdgSlotError naming the rule and the node or edge row
     */
    static DdgRecords fromSlots(const DdgNode *nodes,
                                std::uint32_t node_slots,
                                const DdgEdge *edges,
                                std::uint32_t edge_slots);

    int numNodeSlots() const
    {
        return static_cast<int>(nodes_.size() + addedNodes());
    }
    int numEdgeSlots() const
    {
        return static_cast<int>(edges_.size() + addedEdges());
    }
    int numNodes() const { return liveNodes_; }
    int numEdges() const { return liveEdges_; }
    std::uint64_t generation() const { return generation_; }

    /**
     * Force a new generation stamp (see "Generation counter" in the
     * file comment). No library code needs it; it stays because the
     * compile benchmark calls it.
     */
    void bumpGeneration();

    /**
     * Record bytes these records hold and their base does not share,
     * counted from element counts: 8 per appended node, 16 per
     * appended edge and 8 per 64 base slots of tombstone bits. 0 when
     * the records are their base's (a suite loop, an unchanged
     * compile result).
     */
    std::size_t ownedBytes() const;

  private:
    friend class Ddg;

    // The delta block, 64-bit words: a header word (appended nodes
    // in the low half, appended edges in the high half), the appended
    // node records (a word each), the appended edge records (two
    // words each), then the tombstone bits, base node slots first.
    // Empty when nothing was added or removed.
    static constexpr std::size_t kNodeWords = sizeof(DdgNode) / 8;
    static constexpr std::size_t kEdgeWords = sizeof(DdgEdge) / 8;

    std::size_t addedNodes() const
    {
        return delta_.size() ? static_cast<std::uint32_t>(delta_[0]) : 0;
    }
    std::size_t addedEdges() const
    {
        return delta_.size() ? static_cast<std::size_t>(delta_[0] >> 32)
                             : 0;
    }
    std::size_t edgeWordsAt() const
    {
        return 1 + kNodeWords * addedNodes();
    }
    std::size_t bitWordsAt() const
    {
        return edgeWordsAt() + kEdgeWords * addedEdges();
    }

    detail::SharedArray<DdgNode> nodes_; //!< the base's node block
    detail::SharedArray<DdgEdge> edges_; //!< the base's edge block
    detail::SharedArray<std::uint64_t> delta_;
    int liveNodes_ = 0;
    int liveEdges_ = 0;
    std::uint64_t generation_ = 0;
};

static_assert(sizeof(DdgRecords) == 64,
              "three 16-byte block handles, two counts and a stamp");
static_assert(sizeof(DdgNode) % 8 == 0 && sizeof(DdgEdge) % 8 == 0,
              "records fill whole delta words");

/**
 * A mutable data dependence graph. Node/edge ids are dense indices
 * into internal arrays; removed entities remain as tombstones.
 */
class Ddg
{
  public:
    Ddg() = default;

    /**
     * The graph of @p records, with their ids and their stamp: base
     * and delta materialized into exactly-sized arrays, then an
     * exactly-sized adjacency, so every span lists its edge ids,
     * tombstones included, in id order. O(V + E) in four allocations;
     * implicit, so a result's `finalDdg` passes straight to a
     * `const Ddg &` parameter (see "Graphs at rest").
     */
    Ddg(const DdgRecords &records);

    /**
     * Freeze this graph to records against @p base, the records it was
     * converted from, and drop it, building no adjacency (see "Graphs
     * at rest"). The records share @p base's node and edge blocks and
     * keep this graph's node ids, live counts and stamp; a delta block
     * holds the rest, and there is none when this graph still holds
     * those blocks' records.
     *
     * A positional diff against @p base's two blocks (a delta of its
     * own, which only a result compiled again has, is diffed like the
     * graph's other changes): node slot i below the node block's size
     * and edge slot j below the edge block's must hold the block's
     * record i or j, alive or removed (a cleared `alive` is a
     * tombstone bit). The node records after them are appended, and
     * so are the live edges after them, in id order; their dead edges
     * are dropped. So the records' live node and edge sequences equal
     * this graph's. A conversion of @p base mutated only through the
     * structural mutators has this form; a compacted one, or one whose
     * base record was written, does not. O(V + E); allocates the delta
     * block alone, and nothing for a graph that holds @p base's
     * records. Leaves this graph empty.
     * @throws std::invalid_argument naming the first node or edge slot
     *         that does not hold its base record (a missing slot
     *         included), leaving this graph unchanged
     */
    DdgRecords freeze(const DdgRecords &base) &&;

    /**
     * Create an operation of class @p cls.
     * @throws std::invalid_argument, leaving the graph unchanged, for
     *         a class outside the op classes
     */
    NodeId addNode(OpClass cls);

    /**
     * Create a replica of @p original (same op class and semantic
     * identity). The caller wires up the replica's operand edges.
     */
    NodeId addReplica(NodeId original);

    /**
     * Add a dependence edge.
     * @param src producer
     * @param dst consumer
     * @param kind register flow or memory ordering
     * @param distance iteration distance (>= 0)
     * @param mem_latency latency used for Memory edges (an int16_t)
     * @throws std::invalid_argument, leaving the graph unchanged, for
     *         an edge `DdgRecords::fromSlots` would reject: an endpoint
     *         outside the node array or dead, a kind outside the edge
     *         kinds, a negative distance, a memory latency outside
     *         int16_t, or a register-flow edge from an op that produces
     *         no value
     */
    EdgeId addEdge(NodeId src, NodeId dst, EdgeKind kind,
                   int distance = 0, int mem_latency = 1);

    /** Remove a node and all incident edges (tombstoned). */
    void removeNode(NodeId id);

    /** Remove a single edge (tombstoned). */
    void removeEdge(EdgeId id);

    /** Total node slots, including tombstones. Valid ids are < this. */
    int numNodeSlots() const { return static_cast<int>(nodes_.size()); }

    /** Total edge slots, including tombstones. */
    int numEdgeSlots() const { return static_cast<int>(edges_.size()); }

    /** Number of live nodes. */
    int numNodes() const { return liveNodes_; }

    /** Number of live edges. */
    int numEdges() const { return liveEdges_; }

    /** Live node ids in id order (zero-allocation view). */
    LiveNodeRange nodes() const { return LiveNodeRange(nodes_); }

    /** Live edge ids in id order (zero-allocation view). */
    LiveEdgeRange edges() const { return LiveEdgeRange(edges_); }

    const DdgNode &node(NodeId id) const;
    DdgNode &node(NodeId id);
    const DdgEdge &edge(EdgeId id) const;
    DdgEdge &edge(EdgeId id);

    /** Live incoming edges of @p id (zero-allocation view). */
    LiveAdjRange inEdges(NodeId id) const;

    /** Live outgoing edges of @p id (zero-allocation view). */
    LiveAdjRange outEdges(NodeId id) const;

    /**
     * Raw in-span of @p id: all incoming edge ids, tombstones
     * included, borrowed from the arena (see EdgeSpan's validity
     * caveat). The caller filters on `edge(id).alive` itself.
     * Storage-level access: bounds-checked only, so dead node slots
     * are readable (like `node()`/`edge()`).
     */
    EdgeSpan inEdgesRaw(NodeId id) const;

    /** Raw out-span of @p id (see inEdgesRaw). */
    EdgeSpan outEdgesRaw(NodeId id) const;

    /**
     * Live register-flow producers of @p id (dedup not applied;
     * zero-allocation view).
     */
    FlowNeighborRange flowPreds(NodeId id) const;

    /** Live register-flow consumers of @p id (zero-allocation view). */
    FlowNeighborRange flowSuccs(NodeId id) const;

    /**
     * Latency contributed by @p edge: the producer's latency for
     * register flow (the bus latency when the producer is a Copy),
     * the stored memLatency for memory edges.
     */
    int edgeLatency(EdgeId edge, const MachineConfig &mach) const;

    /**
     * Structural-mutation stamp; see the header comment. A copy whose
     * stamp still equals its source's has had no structural mutation.
     */
    std::uint64_t generation() const { return generation_; }

    /**
     * Rebuild the graph from its live edges: the conversion of
     * `DdgRecords::fromSlots` on the node slots and the live edges in
     * id order. Tombstoned edges are dropped and the live ones
     * renumbered densely, keeping their fields and their order, so
     * every span lists the same edges in the same order as before.
     * Node ids, node records and flags (dead node slots included) are
     * unchanged. The graph comes back with exactly-sized arrays, no
     * arena slack or dead region, and a fresh generation stamp (its
     * edge ids changed). No compile pass calls it: compile() keeps
     * every input edge id so that `freeze` can diff by position (a
     * compacted copy does not freeze against its input). It stays
     * for the compile benchmark's replay, which compacts on every
     * attempt. A graph with no dead edge slot and no arena slack
     * already has that form: compaction then only drops its arrays'
     * capacity slack and keeps its stamp.
     *
     * **The one view-invalidating operation:** every outstanding
     * filtering view (inEdges/outEdges/flowPreds/flowSuccs), raw span
     * (inEdgesRaw/outEdgesRaw), edge id and per-edge table taken
     * before a compaction that rebuilt the graph is invalid - the
     * exception to the views' survive-every-mutation contract. Call
     * only at quiescent boundaries with no views held.
     * @throws DdgSlotError, leaving the graph unchanged, if the live
     *         graph breaks a `DdgRecords::fromSlots` rule (possible
     *         only after field writes through `node()`/`edge()`)
     */
    void compact();

  private:
    friend class DdgRecords;

    static std::uint64_t freshGeneration();

    /** Give this graph a new stamp: every structural mutation does. */
    void bumpGeneration() { generation_ = freshGeneration(); }

    /**
     * Build the arena and the blocks of nodes_ and edges_ in the
     * compact form: blocks back to back in node order, no slack, each
     * span filled in edge-id order, dead edges included.
     */
    void buildAdjacency();

    void checkNode(NodeId id) const;
    void checkEdge(EdgeId id) const;

    std::vector<DdgNode> nodes_;
    std::vector<DdgEdge> edges_;
    // CSR-style adjacency: one flat edge-id arena plus one block per
    // node slot, its in-span followed by its out-span (adjacency
    // costs two allocations per graph). See the header comment for
    // the invariants and the growth rule.
    std::vector<EdgeId> arena_;
    std::vector<detail::AdjSlot> slots_;
    int liveNodes_ = 0;
    int liveEdges_ = 0;
    std::uint64_t generation_ = freshGeneration();
};

static_assert(sizeof(Ddg) == 4 * sizeof(std::vector<EdgeId>) + 16,
              "four vectors, two counts and a stamp");

} // namespace cvliw

#endif // CVLIW_DDG_DDG_HH
