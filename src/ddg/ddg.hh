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
 * bytes. `DdgNode` and `DdgEdge` are 16 bytes with no id field (an id
 * is its slot index); an adjacency span is 8 bytes, offset and count
 * (see the slack rule below). A node slot thus costs 32 bytes and an
 * edge slot 24, plus arena slack. A `Ddg` handle is 96 bytes: five
 * 16-byte array handles, two live counts and the generation stamp.
 * static_asserts pin all four sizes.
 *
 * ## Adjacency arena (CSR layout)
 *
 * Per-node adjacency is not stored as one heap vector per node but as
 * one flat `EdgeId` arena owned by the graph plus two
 * `{offset, count}` spans per node (its in-list and its out-list,
 * interleaved in one slot table so a node's pair shares a cache
 * line). Contiguity is the point: every compile pass iterates
 * adjacency millions of times, and one arena per graph replaces ~80
 * small allocations per loop with two, keeps neighbouring spans on
 * the same cache lines, and copies adjacency as two flat memcpys.
 *
 * Arena invariants and relocation rules:
 *  - a span's ids are stored contiguously in insertion (edge-creation)
 *    order; tombstoned edge ids stay in place and are skipped by the
 *    filtering views;
 *  - the slack rule: `addEdge` appends in place while the arena entry
 *    just past the span is `invalidEdge`; otherwise the span is full
 *    and relocates to fresh arena tail, twice its length (4 if empty)
 *    with the rest filled with `invalidEdge` (amortized O(1) growth).
 *    Only full spans move, so a dead region holds no `invalidEdge`;
 *    it is never reused or rewritten, so stale spans still read
 *    valid, pre-relocation data;
 *  - `Ddg::fromSlots` builds exactly-sized arenas (no slack, no
 *    relocation ever happened) - the compact layout every generated
 *    graph starts from: the workload generator assembles a loop's
 *    records in scratch buffers and builds its graph with one
 *    `fromSlots` call (workloads/generator.hh);
 *  - the arenas only ever grow; `removeNode`/`removeEdge` tombstone
 *    edges but never move spans. The one exception is an explicit
 *    `compact()` call, which repacks every span to fromSlots density
 *    (and invalidates outstanding views; see its comment).
 *
 * ## Label arena
 *
 * Node labels live in one per-graph byte blob; each node stores a
 * `{labelOffset, labelLen}` pair into it, which makes `DdgNode` (and
 * `DdgEdge`) trivially copyable PODs, so cloning a graph's storage is
 * a fixed handful of flat buffer copies - zero per-node allocations
 * on the pipeline's copy-mutate-retry path. Read a label through
 * `label(id)`, which returns a `std::string_view` borrowing arena
 * storage.
 *
 * Arena rules mirror the adjacency arena's:
 *  - label bytes are append-only; mutation APIs never rewrite or
 *    reuse existing bytes. Tombstoning a node leaves its label bytes
 *    in place (dead slots still print in diagnostics);
 *  - `label()` views borrow the blob's storage and are invalidated by
 *    any label-appending mutation (`addNode`, `addReplica`) and by
 *    `compact()`; never hold one across those. Passing a view of this
 *    graph's own arena back into `addNode`/`addReplica` is safe - an
 *    append that reallocates copies the source bytes before it
 *    releases the old block;
 *  - `compact()` repacks the blob to live-label density: live nodes'
 *    bytes packed in node order, dead slots' label bytes dropped
 *    (their labels read back empty - the one lossy effect compaction
 *    has, and labels are diagnostic-only data);
 *  - labels never enter result digests (eval/digest mixes numeric
 *    compile results only), so label layout is free to change without
 *    perturbing bit-identity of compile outcomes.
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
 * graph object (the storage handle inside it) and snapshots the
 * viewed node's span bounds at creation. It therefore stays valid -
 * never dangles - across every mutation short of destroying/moving
 * the graph: tombstoning (`removeNode`/`removeEdge`),
 * `addNode`/`addReplica`, `addEdge` anywhere, and the clone a first
 * write to shared storage makes (see "Shared storage"). The one
 * staleness rule: a view taken before an `addEdge` that appends to
 * the *viewed* list keeps observing the pre-insertion snapshot (it
 * misses newer edges; if the span relocated it reads the intact dead
 * region). Take a fresh view after growing the list you iterate.
 *
 * The raw-span accessors (`inEdgesRaw()`/`outEdgesRaw()`) are the
 * no-filter fast path for read-only kernels: they yield the whole
 * span (tombstones included) as a borrowed pointer range, so the
 * caller merges the `alive` check into the edge fetch it already
 * does. Unlike the views they borrow arena storage directly and are
 * invalidated by any subsequent mutation (arena growth, or the clone
 * a first write makes, may move the storage); never hold one across
 * a mutation.
 *
 * ## Shared storage (copy-on-write)
 *
 * The five arrays behind a graph (nodes, edges, adjacency arena,
 * adjacency slots, label arena) are copy-on-write blocks with atomic
 * reference counts (`detail::CowArray`):
 *  - a copy is a reference-count bump per array: no allocation, no
 *    element copy, at any graph size. Copies may be made from any
 *    number of threads at once (the pool's workers copy one client
 *    graph concurrently);
 *  - the first write to a shared array clones that array alone, so
 *    the other sharers stay bit-identical; a block is never written
 *    while shared. Writes are every structural mutation and the
 *    non-const `node()`/`edge()` accessors, so code that only reads
 *    a graph it may later change reads through a const reference;
 *  - the generation stamp is a per-object field, not shared storage:
 *    `bumpGeneration()` never clones;
 *  - the filtering views follow a clone as they follow a span
 *    relocation (see above); raw spans, `label()` views and
 *    references from `node()`/`edge()` borrow the storage itself and
 *    do not. A mutable reference must not be held across a copy of
 *    its graph either: writing through it after the copy would write
 *    a block the copy shares;
 *  - `compact()` of a shared graph clones what it repacks; the other
 *    sharers keep the old layout. Its capacity trim skips arrays that
 *    are still shared, which trimming would duplicate, not shrink.
 *
 * ## Generation counter
 *
 * `generation()` returns a stamp that changes on every structural
 * mutation (`addNode` / `addReplica` / `addEdge` / `removeNode` /
 * `removeEdge`). Stamps are process-unique: two `Ddg` objects carry
 * the same stamp only when one is an unmodified copy of the other,
 * so the loop-analysis memo (`AnalysisCache` in ddg/analysis.hh) can
 * key a `LoopAnalysis` on the stamp plus the config's id and stay
 * correct across the pipeline's copy-mutate-retry loop. Field writes
 * through the non-const `node()` / `edge()` accessors do NOT advance
 * the stamp; callers that change analysis-relevant fields that way
 * (op class, edge distance or latency) must call `bumpGeneration()`
 * themselves.
 * Flag-only writes (`liveOut`, `isSpill`, labels) need no bump.
 */

#ifndef CVLIW_DDG_DDG_HH
#define CVLIW_DDG_DDG_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
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
 * One operation. Like DdgEdge a 16-byte trivially-copyable POD; its
 * label lives in the owning graph's label arena as an {offset, len}
 * slice (read through `Ddg::label(id)`), never as an owned string.
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
    /** Label slice into the owning Ddg's label arena. */
    std::uint32_t labelOffset = 0;
    std::uint32_t labelLen = 0;
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
static_assert(sizeof(DdgNode) == 16, "no id field, packed flags");

namespace detail
{

/**
 * Copy-on-write array of trivially copyable elements: the storage of
 * every Ddg array (see "Shared storage" in the file comment). A copy
 * shares the block and bumps its atomic reference count; the first
 * write through a shared handle clones the block, so a shared block
 * is never written. The handle holds the element pointer itself (the
 * count sits in a header just before the elements), so a read costs
 * what a std::vector read costs. Size and capacity live in the
 * handle as 32-bit counts; sharers agree on them because a shared
 * block never changes.
 */
template <typename T>
class CowArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "CowArray copies elements as raw bytes");

  public:
    CowArray() = default;
    CowArray(const CowArray &o) noexcept
        : data_(o.data_), size_(o.size_), cap_(o.cap_)
    {
        if (data_)
            refs(data_).fetch_add(1, std::memory_order_relaxed);
    }
    CowArray(CowArray &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0)),
          cap_(std::exchange(o.cap_, 0))
    {
    }
    CowArray &operator=(CowArray o) noexcept
    {
        std::swap(data_, o.data_);
        std::swap(size_, o.size_);
        std::swap(cap_, o.cap_);
        return *this;
    }
    ~CowArray() { release(data_); }

    std::size_t size() const { return size_; }
    const T *data() const { return data_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    /** Writable elements; a shared block is cloned exactly sized. */
    T *writable()
    {
        if (shared())
            reallocate(size_);
        return data_;
    }

    /**
     * Append @p n elements copied from @p src. @p src may point into
     * this array: a reallocating append copies it before it releases
     * the old block.
     */
    void append(const T *src, std::size_t n)
    {
        if (n == 0)
            return;
        const std::size_t need = size_ + n;
        if (need > cap_ || shared()) {
            const std::size_t cap = need > cap_ ? grown(need) : cap_;
            T *fresh = allocate(cap);
            copy(fresh, data_, size_);
            copy(fresh + size_, src, n);
            release(data_);
            data_ = fresh;
            cap_ = static_cast<std::uint32_t>(cap);
        } else {
            copy(data_ + size_, src, n);
        }
        size_ = static_cast<std::uint32_t>(need);
    }

    void push_back(const T &v) { append(&v, 1); }

    /** Writable room for @p n elements (capacity grows 2x). */
    void reserve(std::size_t n)
    {
        if (n > cap_)
            reallocate(grown(n));
        else if (shared())
            reallocate(cap_);
    }

    /** Grow to @p n elements (n >= size()), new ones set to @p fill. */
    void resize(std::size_t n, const T &fill = T())
    {
        reserve(n);
        std::uninitialized_fill_n(data_ + size_, n - size_, fill);
        size_ = static_cast<std::uint32_t>(n);
    }

    /**
     * Drop capacity slack. A shared block keeps its slack: trimming
     * it would add a copy, not drop one.
     */
    void shrinkToFit()
    {
        if (cap_ > size_ && !shared())
            reallocate(size_);
    }

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

    static T *allocate(std::size_t cap)
    {
        auto *raw = static_cast<unsigned char *>(
            ::operator new(kHeader + cap * sizeof(T)));
        new (raw) Count(1);
        return reinterpret_cast<T *>(raw + kHeader);
    }

    static void release(T *data) noexcept
    {
        if (data &&
            refs(data).fetch_sub(1, std::memory_order_acq_rel) == 1) {
            ::operator delete(reinterpret_cast<unsigned char *>(data) -
                              kHeader);
        }
    }

    static void copy(T *dst, const T *src, std::size_t n)
    {
        if (n)
            std::memcpy(static_cast<void *>(dst), src, n * sizeof(T));
    }

    /** True when another handle shares this block. */
    bool shared() const
    {
        // Acquire pairs with a former sharer's releasing decrement:
        // its reads of the block happen before our writes to it.
        return data_ &&
               refs(data_).load(std::memory_order_acquire) != 1;
    }

    /** Capacity for @p need elements: 2x growth, 32-bit bound. */
    std::size_t grown(std::size_t need) const
    {
        const std::size_t doubled = 2 * std::size_t{cap_};
        return std::min<std::size_t>(std::max(need, doubled), UINT32_MAX);
    }

    /** Move the elements into a fresh block of @p cap >= size(). */
    void reallocate(std::size_t cap)
    {
        T *fresh = cap ? allocate(cap) : nullptr;
        copy(fresh, data_, size_);
        release(data_);
        data_ = fresh;
        cap_ = static_cast<std::uint32_t>(cap);
    }

    T *data_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = 0;
};

/**
 * One node's span inside an adjacency arena: `count` edge ids stored
 * at `offset` (growth follows the slack rule in the file comment).
 */
struct AdjSlot
{
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
};

static_assert(sizeof(AdjSlot) == 8, "two 4-byte fields per span");

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

    const CowArray<Entity> *arr = nullptr;

    std::size_t limit() const { return arr->size(); }
    bool admit(std::size_t i) const { return (*arr)[i].alive; }
    Id project(std::size_t i) const { return static_cast<Id>(i); }
};

/**
 * Live edge ids of one adjacency span. The arena is addressed through
 * the graph's storage handle (not a raw pointer) so the policy
 * survives arena reallocation and copy-on-write clones; the span
 * bounds are a snapshot taken at creation.
 */
struct LiveAdjPolicy
{
    using value_type = EdgeId;

    const CowArray<EdgeId> *arena = nullptr;
    const CowArray<DdgEdge> *edges = nullptr;
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

    const CowArray<EdgeId> *arena = nullptr;
    const CowArray<DdgEdge> *edges = nullptr;
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
    explicit LiveIdRange(const detail::CowArray<Entity> &arr)
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
    LiveAdjRange(const detail::CowArray<EdgeId> &arena,
                 const detail::AdjSlot &slot,
                 const detail::CowArray<DdgEdge> &edges)
        : detail::SkipFilterRange<detail::LiveAdjPolicy>(
              detail::LiveAdjPolicy{&arena, &edges, slot.offset,
                                    slot.count})
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
    FlowNeighborRange(const detail::CowArray<EdgeId> &arena,
                      const detail::AdjSlot &slot,
                      const detail::CowArray<DdgEdge> &edges,
                      bool src_side)
        : detail::SkipFilterRange<detail::FlowNeighborPolicy>(
              detail::FlowNeighborPolicy{&arena, &edges, slot.offset,
                                         slot.count, src_side})
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
 * Slot arrays that break one of `Ddg::fromSlots`' structural rules;
 * what() names the rule and the row, e.g. "edge record row 2:
 * negative distance".
 */
class DdgSlotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A mutable data dependence graph. Node/edge ids are dense indices
 * into internal arrays; removed entities remain as tombstones.
 */
class Ddg
{
  public:
    /**
     * Build a graph from fully-described slot arrays in one step: one
     * generation stamp and exactly-sized arrays (no adjacency slack)
     * instead of per-element mutation calls. Each array is copied
     * once into the graph, so a caller can reuse its buffers for the
     * next graph (the workload generator does). @p labels becomes the
     * label arena verbatim. Ids are the slot indices; adjacency is
     * derived here: each node's spans hold its incident edge ids in
     * edge-id order - exactly the state an addNode/addEdge/remove*
     * replay would produce, so a graph rebuilt from another graph's
     * slots and label arena is field-identical to it.
     *
     * The slots are checked against eight structural rules: an op
     * class below `OpClass::NumOpClasses` (the pipeline indexes
     * tables by op class), a semantic id inside the node array, a
     * label slice inside @p labels, an edge kind no greater than
     * `EdgeKind::Spill`, edge endpoints inside the node array, a
     * distance >= 0, no live edge on a dead node, and no flow edge
     * from an op that produces no value.
     * @throws DdgSlotError naming the rule and the node or edge row
     */
    static Ddg fromSlots(const DdgNode *nodes, std::uint32_t node_slots,
                         const DdgEdge *edges, std::uint32_t edge_slots,
                         std::string_view labels);

    /**
     * Create an operation of class @p cls. The label bytes are copied
     * into the graph's label arena (an empty @p label synthesizes
     * "n<id>"); a view into this graph's own arena is accepted (the
     * interner is alias-safe across the append's reallocation).
     */
    NodeId addNode(OpClass cls, std::string_view label = {});

    /**
     * Create a replica of @p original (same op class and semantic
     * identity); its label is the original's label + @p label_suffix,
     * synthesized directly in the label arena. The caller wires up
     * the replica's operand edges.
     */
    NodeId addReplica(NodeId original, std::string_view label_suffix);

    /**
     * Add a dependence edge.
     * @param src producer
     * @param dst consumer
     * @param kind register flow or memory ordering
     * @param distance iteration distance (>= 0)
     * @param mem_latency latency used for Memory edges (an int16_t)
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

    /**
     * Label of node @p id as a view into the label arena (dead slots
     * readable, like `node()`). Borrowed storage: invalidated by any
     * label-appending mutation (`addNode`/`addReplica`) and by
     * `compact()` - copy it out before mutating (see spill.cc for the
     * canonical pattern).
     */
    std::string_view label(NodeId id) const;

    /**
     * The whole label arena blob. Every node's {labelOffset,
     * labelLen} slices this; feeding it back through `fromSlots`
     * alongside copies of the slot arrays reproduces the graph's
     * labels exactly.
     */
    std::string_view labelArena() const
    {
        return std::string_view(labels_.data(), labels_.size());
    }

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

    /** True when any live node is a Copy op. */
    bool hasCopies() const;

    /**
     * Structural-mutation stamp; see the header comment. Unchanged
     * stamp across two observations of (possibly different) Ddg
     * objects guarantees identical graph structure.
     */
    std::uint64_t generation() const { return generation_; }

    /**
     * Force a new generation stamp. Call after editing analysis-
     * relevant fields through the non-const node()/edge() accessors.
     */
    void bumpGeneration() { generation_ = freshGeneration(); }

    /**
     * Squeeze the adjacency and label arenas back to `fromSlots`
     * density. Adjacency:
     * every span packed back-to-back in node order with no slack,
     * dead regions left behind by span relocations discarded.
     * A graph that grew through heavy replication carries those dead
     * regions (never reused by design; see the arena invariants)
     * until destruction; compaction reclaims them for long-lived
     * graphs, e.g. at the pipeline's copy-mutate-retry boundary
     * before the graph is copied or retained. Adjacency content and
     * order are preserved exactly - traversals, and therefore every
     * compile decision, are unchanged (asserted field-for-field in
     * debug builds) - and the generation stamp does not advance
 * (structure is identical). The label arena is likewise repacked
     * to live-label density: live nodes' bytes packed in node order,
     * dead slots' label bytes dropped (their labels read back empty;
     * see the label arena rules). Last, every array this graph owns
     * alone drops its capacity slack, so a compacted graph is as
     * exactly sized as a `fromSlots` load; arrays still shared with
     * another graph keep theirs (see "Shared storage"). No-op when
     * both arenas are dense and no owned array has slack.
     *
     * **The one view-invalidating operation:** compaction moves span
     * offsets and label bytes, so every outstanding filtering view
     * (inEdges/outEdges/flowPreds/flowSuccs), raw span (inEdgesRaw/
     * outEdgesRaw) and `label()` view of this graph is invalidated -
     * the exception to the views' survive-every-mutation contract.
     * Call only at quiescent boundaries with no views held.
     */
    void compact();

  private:
    static std::uint64_t freshGeneration();

    void checkNode(NodeId id) const;
    void checkEdge(EdgeId id) const;

    /**
     * Append @p s to the label arena and return its start offset.
     * Alias-safe: a view into labels_ itself is re-derived through
     * its offset before the append can reallocate the blob (the
     * addReplica/spillOneValue held-reference-across-realloc class).
     */
    std::uint32_t internLabel(std::string_view s);

    // Every array is copy-on-write storage; see "Shared storage" in
    // the header comment.
    detail::CowArray<DdgNode> nodes_;
    detail::CowArray<DdgEdge> edges_;
    // CSR-style adjacency: one flat edge-id arena plus two spans per
    // node slot, interleaved as slots_[2*id] = in, slots_[2*id+1] =
    // out so a node's pair shares a cache line (and adjacency costs
    // two allocations per graph, not four). See the header comment
    // for the invariants and relocation rules.
    detail::CowArray<EdgeId> arena_;
    detail::CowArray<detail::AdjSlot> slots_;
    // Label arena: every node's label bytes, append-only; see the
    // header comment for the invariants.
    detail::CowArray<char> labels_;
    int liveNodes_ = 0;
    int liveEdges_ = 0;
    std::uint64_t generation_ = freshGeneration();
};

static_assert(sizeof(Ddg) == 96,
              "five 16-byte array handles, two counts and a stamp");

} // namespace cvliw

#endif // CVLIW_DDG_DDG_HH
