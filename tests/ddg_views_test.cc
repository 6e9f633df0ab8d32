/**
 * @file
 * Tests for the zero-allocation DDG traversal views: tombstone
 * skipping after removals, iterator stability under const access,
 * the generation counter contract, and a regression check that compile() results on the paper's worked
 * example are unchanged by the view migration. The DdgArena section
 * covers the adjacency blocks: the growth rule, stale views, the
 * 65,535-slot limit, compact(), and the round trip through
 * DdgRecords (freeze() against a base graph, or a graph's records as
 * they stand, and the conversion back, which materializes the records
 * and rebuilds the blocks). The DdgSlots section covers
 * `DdgRecords::fromSlots`: each of its structural rules rejects a bad
 * row with its message, it builds no adjacency, and a graph rebuilt
 * from its own slot arrays is field-identical to it. The DdgShared
 * section covers copy-on-write storage: a copy shares and allocates
 * nothing, a first write clones only what it writes, views follow the
 * clone, and concurrent copies of one graph are race-free (the TSan
 * job runs this binary).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hh"
#include "core/replicator.hh"
#include "ddg/analysis.hh"
#include "ddg/ddg.hh"
#include "partition/partition.hh"
#include "support/rng.hh"
#include "expect_invalid.hh"
#include "paper_graph.hh"

// --- Global operator-new hook (this binary only). --------------------
// The DdgShared allocation test flips g_count_news on around a graph
// copy or write and reads how many heap allocations it made. Replacement
// operators must live at global scope; outside the counting window
// they are plain malloc/free pass-throughs.
namespace
{
std::atomic<bool> g_count_news{false};
std::atomic<std::size_t> g_new_calls{0};
} // namespace

void *
operator new(std::size_t size)
{
    if (g_count_news.load(std::memory_order_relaxed))
        g_new_calls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace cvliw
{
namespace
{

/** a -> b -> c with a loop-carried c -> a and a memory edge a -> c. */
struct SmallGraph
{
    Ddg g;
    NodeId a, b, c;
    EdgeId ab, bc, ca, ac_mem;

    SmallGraph()
    {
        a = g.addNode(OpClass::Load);
        b = g.addNode(OpClass::IntAlu);
        c = g.addNode(OpClass::FpAlu);
        ab = g.addEdge(a, b, EdgeKind::RegFlow, 0);
        bc = g.addEdge(b, c, EdgeKind::RegFlow, 0);
        ca = g.addEdge(c, a, EdgeKind::RegFlow, 1);
        ac_mem = g.addEdge(a, c, EdgeKind::Memory, 0, 2);
    }
};

/**
 * Every byte a graph's storage holds - node and edge records and each
 * node's raw spans - as one string, for bit-identity checks. Reads
 * through const accessors only, which never clone.
 */
std::string
imageOf(const Ddg &g)
{
    std::string img;
    const auto put = [&](const void *p, std::size_t n) {
        if (n)
            img.append(static_cast<const char *>(p), n);
    };
    for (NodeId n = 0; n < g.numNodeSlots(); ++n) {
        put(&g.node(n), sizeof(DdgNode));
        for (const EdgeSpan span : {g.inEdgesRaw(n), g.outEdgesRaw(n)}) {
            const std::uint32_t k = span.size();
            put(&k, sizeof k);
            put(span.begin(), k * sizeof(EdgeId));
        }
    }
    for (EdgeId e = 0; e < g.numEdgeSlots(); ++e)
        put(&g.edge(e), sizeof(DdgEdge));
    return img;
}

TEST(DdgViews, NodeRangeSkipsTombstones)
{
    SmallGraph s;
    s.g.removeNode(s.b);
    EXPECT_EQ(s.g.nodes().toVector(),
              (std::vector<NodeId>{s.a, s.c}));
    EXPECT_EQ(s.g.numNodeSlots(), 3);
    EXPECT_EQ(s.g.numNodes(), 2);
}

TEST(DdgViews, EdgeRangeSkipsEdgesOfRemovedNode)
{
    SmallGraph s;
    s.g.removeNode(s.b); // kills ab and bc
    EXPECT_EQ(s.g.edges().toVector(),
              (std::vector<EdgeId>{s.ca, s.ac_mem}));
    EXPECT_EQ(s.g.numEdges(), 2);
}

TEST(DdgViews, AdjacencyRangesSkipRemovedEdges)
{
    SmallGraph s;
    s.g.removeEdge(s.ab);
    EXPECT_TRUE(s.g.outEdges(s.a).toVector() ==
                std::vector<EdgeId>{s.ac_mem});
    EXPECT_TRUE(s.g.inEdges(s.b).empty());
    EXPECT_EQ(s.g.inEdges(s.b).size(), 0u);
    EXPECT_EQ(s.g.outEdges(s.b).toVector(),
              std::vector<EdgeId>{s.bc});
}

TEST(DdgViews, FlowRangesFilterKindAndTombstones)
{
    SmallGraph s;
    // Memory edge a -> c must not appear as a flow neighbour.
    EXPECT_EQ(s.g.flowSuccs(s.a).toVector(),
              std::vector<NodeId>{s.b});
    EXPECT_EQ(s.g.flowPreds(s.c).toVector(),
              std::vector<NodeId>{s.b});
    EXPECT_EQ(s.g.flowPreds(s.a).toVector(),
              std::vector<NodeId>{s.c}); // loop-carried counts
    s.g.removeEdge(s.bc);
    EXPECT_TRUE(s.g.flowPreds(s.c).empty());
    EXPECT_EQ(s.g.flowSuccs(s.c).front(), s.a);
    EXPECT_EQ(s.g.flowSuccs(s.c).size(), 1u);
}

TEST(DdgViews, IteratorsAreStableUnderConstAccess)
{
    SmallGraph s;
    const Ddg &g = s.g;

    // Two interleaved traversals of the same range see the same
    // sequence, and const accessors between increments do not
    // perturb them.
    auto r = g.nodes();
    auto it1 = r.begin();
    auto it2 = r.begin();
    std::vector<NodeId> seq1, seq2;
    while (it1 != r.end()) {
        seq1.push_back(*it1);
        (void)g.node(*it1);
        (void)g.numNodes();
        ++it1;
    }
    while (it2 != r.end()) {
        seq2.push_back(*it2);
        ++it2;
    }
    EXPECT_EQ(seq1, seq2);
    EXPECT_EQ(seq1, g.nodes().toVector());

    // A range outlives tombstoning mutations: removing an edge while
    // an adjacency range exists must not invalidate it (the paper's
    // rewiring passes rely on this).
    auto out = s.g.outEdges(s.a);
    s.g.removeEdge(s.ab);
    EXPECT_EQ(out.toVector(), std::vector<EdgeId>{s.ac_mem});
}

TEST(DdgViews, GenerationAdvancesOnStructuralMutation)
{
    Ddg g;
    const auto g0 = g.generation();
    const NodeId a = g.addNode(OpClass::Load);
    const auto g1 = g.generation();
    EXPECT_NE(g0, g1);
    const NodeId b = g.addNode(OpClass::IntAlu);
    const EdgeId e = g.addEdge(a, b, EdgeKind::RegFlow, 0);
    const auto g2 = g.generation();
    EXPECT_NE(g1, g2);
    g.removeEdge(e);
    const auto g3 = g.generation();
    EXPECT_NE(g2, g3);
    g.removeNode(b);
    EXPECT_NE(g3, g.generation());

    // Field writes through node() do not advance the stamp; an
    // explicit bump does.
    const auto g4 = g.generation();
    g.node(a).liveOut = true;
    EXPECT_EQ(g4, g.generation());
    g.bumpGeneration();
    EXPECT_NE(g4, g.generation());
}

TEST(DdgViews, GenerationStampsAreProcessUnique)
{
    // Two graphs that diverge from a common copy must never share a
    // stamp again, even after the same number of mutations - this is
    // what lets compile() tell a changed work copy from the input.
    SmallGraph s;
    Ddg copy = s.g;
    EXPECT_EQ(copy.generation(), s.g.generation());

    s.g.addNode(OpClass::IntAlu);
    copy.addNode(OpClass::IntAlu);
    EXPECT_NE(copy.generation(), s.g.generation());
}

TEST(DdgViews, AnalysisReadsLiveEdgesAndTheirLatencies)
{
    // a -> b -> c -> a (distance 1) plus a memory edge a -> c of
    // latency 2: the cycle through b is the tightest (2 + 1 + 3).
    SmallGraph s;
    const auto m = MachineConfig::unified();
    auto a = analyzeLoop(s.g, m);
    ASSERT_EQ(a.recurrences.size(), 1u);
    EXPECT_EQ(a.recurrences[0].members,
              (std::vector<NodeId>{s.a, s.b, s.c}));
    EXPECT_EQ(a.recMii, 6);

    // A dead edge is not part of any cycle: what is left is the memory
    // edge's latency plus c's over distance 1.
    s.g.removeEdge(s.bc);
    a = analyzeLoop(s.g, m);
    ASSERT_EQ(a.recurrences.size(), 1u);
    EXPECT_EQ(a.recurrences[0].members, (std::vector<NodeId>{s.a, s.c}));
    EXPECT_EQ(a.recMii, 5);
}

/**
 * The migration is a pure performance refactor: compile() on the
 * paper's worked example must keep producing exactly the result the
 * pre-view pipeline produced (verified against the seed build on the
 * full 678-loop suite; this pins the paper example permanently).
 */
TEST(DdgViews, CompileResultsUnchangedByMigration)
{
    PaperExample ex;
    const CompileResult r = compile(ex.ddg, ex.mach);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.mii, 1);
    EXPECT_EQ(r.ii, 2);
    EXPECT_EQ(r.schedule.length, 10);
    EXPECT_EQ(r.schedule.stageCount, 5);
    EXPECT_EQ(r.repl.replicasAdded, 4);
    EXPECT_EQ(r.spills, 0);
    EXPECT_EQ(r.comsFinal, 2);
    const int worst = *std::max_element(r.schedule.maxLive.begin(),
                                        r.schedule.maxLive.end());
    EXPECT_EQ(worst, 1);

    // Determinism: a second compile of the same graph is identical.
    const CompileResult r2 = compile(ex.ddg, ex.mach);
    EXPECT_EQ(r2.ii, r.ii);
    EXPECT_EQ(r2.schedule.length, r.schedule.length);
    EXPECT_EQ(r2.schedule.maxLive, r.schedule.maxLive);
    EXPECT_EQ(r2.schedule.start, r.schedule.start);
}

// ---------------------------------------------------------------------
// Adjacency-arena contracts: span relocation and view validity.

TEST(DdgArena, ViewSnapshotSurvivesSpanRelocation)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    std::vector<NodeId> sinks;
    for (int i = 0; i < 12; ++i)
        sinks.push_back(g.addNode(OpClass::Store));
    const EdgeId first = g.addEdge(a, sinks[0], EdgeKind::RegFlow, 0);

    // Snapshot a's out-view with one edge, then grow a's span far
    // enough to force at least one relocation (initial capacity is
    // small, growth doubles). The stale view must keep yielding the
    // pre-insertion snapshot - never garbage, never the new edges.
    const LiveAdjRange before = g.outEdges(a);
    for (int i = 1; i < 12; ++i)
        g.addEdge(a, sinks[i], EdgeKind::RegFlow, 0);
    EXPECT_EQ(before.toVector(), std::vector<EdgeId>{first});
    EXPECT_EQ(g.outEdges(a).size(), 12u); // fresh view sees all
}

TEST(DdgArena, ViewsSurviveMutationsOfOtherNodes)
{
    SmallGraph s;
    const LiveAdjRange a_out = s.g.outEdges(s.a);
    const std::vector<EdgeId> expect = a_out.toVector();

    // addNode/addReplica (node storage growth) and addEdge on other
    // nodes (arena growth, possibly relocating *their* spans) must
    // not perturb a's view.
    const NodeId d = s.g.addNode(OpClass::IntAlu);
    const NodeId r = s.g.addReplica(s.b);
    for (int i = 0; i < 8; ++i)
        s.g.addEdge(s.b, d, EdgeKind::RegFlow, i);
    s.g.addEdge(s.b, r, EdgeKind::RegFlow, 0);
    EXPECT_EQ(a_out.toVector(), expect);
}

/**
 * The naive representation the arena replaced: one id vector per
 * node and side. Everything observable about arena adjacency must
 * stay equal to this oracle under any mutation interleaving.
 */
struct AdjOracle
{
    std::vector<std::vector<EdgeId>> in, out;

    void onNode() { in.emplace_back(), out.emplace_back(); }
    void onEdge(const Ddg &g, EdgeId e)
    {
        out[g.edge(e).src].push_back(e);
        in[g.edge(e).dst].push_back(e);
    }

    /**
     * Mirror of compact(): @p ids maps each old edge id to its new
     * one, or to invalidEdge for a dropped (dead) edge.
     */
    void onCompact(const std::vector<EdgeId> &ids)
    {
        for (auto *side : {&in, &out}) {
            for (std::vector<EdgeId> &span : *side) {
                std::vector<EdgeId> kept;
                for (EdgeId e : span) {
                    if (ids[e] != invalidEdge)
                        kept.push_back(ids[e]);
                }
                span = std::move(kept);
            }
        }
    }

    static std::vector<EdgeId> liveOf(const Ddg &g,
                                      const std::vector<EdgeId> &ids)
    {
        std::vector<EdgeId> live;
        for (EdgeId e : ids) {
            if (g.edge(e).alive)
                live.push_back(e);
        }
        return live;
    }

    static std::vector<NodeId> flowOf(const Ddg &g,
                                      const std::vector<EdgeId> &ids,
                                      bool src_side)
    {
        std::vector<NodeId> res;
        for (EdgeId e : ids) {
            const DdgEdge &de = g.edge(e);
            if (de.alive && de.kind == EdgeKind::RegFlow)
                res.push_back(src_side ? de.src : de.dst);
        }
        return res;
    }

    void check(const Ddg &g) const
    {
        ASSERT_EQ(g.numNodeSlots(), static_cast<int>(in.size()));
        for (NodeId n = 0; n < g.numNodeSlots(); ++n) {
            // Raw spans: exact id sequence, tombstones included,
            // readable on dead slots too.
            const EdgeSpan ri = g.inEdgesRaw(n), ro = g.outEdgesRaw(n);
            ASSERT_EQ(std::vector<EdgeId>(ri.begin(), ri.end()), in[n])
                << "in-span of node " << n;
            ASSERT_EQ(std::vector<EdgeId>(ro.begin(), ro.end()), out[n])
                << "out-span of node " << n;
            if (!g.node(n).alive)
                continue;
            // Filtering views over live nodes.
            ASSERT_EQ(g.inEdges(n).toVector(), liveOf(g, in[n]))
                << "inEdges of node " << n;
            ASSERT_EQ(g.outEdges(n).toVector(), liveOf(g, out[n]))
                << "outEdges of node " << n;
            ASSERT_EQ(g.flowPreds(n).toVector(), flowOf(g, in[n], true))
                << "flowPreds of node " << n;
            ASSERT_EQ(g.flowSuccs(n).toVector(),
                      flowOf(g, out[n], false))
                << "flowSuccs of node " << n;
        }
    }
};

/**
 * The ids compact() gives @p g's edge slots: the live edges numbered
 * densely in id order, invalidEdge for the dead ones.
 */
std::vector<EdgeId>
compactedIds(const Ddg &g)
{
    std::vector<EdgeId> ids(static_cast<std::size_t>(g.numEdgeSlots()),
                            invalidEdge);
    EdgeId next = 0;
    for (EdgeId e = 0; e < g.numEdgeSlots(); ++e) {
        if (g.edge(e).alive)
            ids[static_cast<std::size_t>(e)] = next++;
    }
    return ids;
}

/** Copy of a raw span, for comparisons after the span is invalid. */
std::vector<EdgeId>
idsOf(EdgeSpan span)
{
    return std::vector<EdgeId>(span.begin(), span.end());
}

/**
 * Mutation fuzz: random interleavings of addNode / addEdge /
 * addReplica / removeNode / removeEdge / removeDeadCode, in-appends
 * to nodes that have out-edges, and compactions against the
 * oracle. Exercises span growth through relocation (many edges on one
 * node), tombstoning, and bulk sweeps - the mutations the arena's
 * amortized-growth rules must keep exact. The graph is copied at
 * random points and mutated on while the copies live, so every
 * mutation also runs as a first write to shared storage; each copy
 * must keep its exact bytes.
 */
TEST(DdgArena, MutationFuzzMatchesVectorOracle)
{
    Rng rng(20260730);
    for (int round = 0; round < 8; ++round) {
        Ddg g;
        AdjOracle oracle;
        std::vector<NodeId> live_nodes;
        std::vector<EdgeId> live_edges;
        std::vector<std::pair<Ddg, std::string>> frozen; // copy, image
        const auto checkFrozen = [&] {
            for (const auto &[copy, image] : frozen)
                ASSERT_EQ(imageOf(copy), image) << "a write leaked";
        };

        auto spawn = [&](OpClass cls) {
            const NodeId n = g.addNode(cls);
            oracle.onNode();
            if (rng.chance(0.3))
                g.node(n).liveOut = true;
            live_nodes.push_back(n);
            return n;
        };
        auto pickProducer = [&]() -> NodeId {
            for (int tries = 0; tries < 32; ++tries) {
                const NodeId n = live_nodes[static_cast<std::size_t>(
                    rng.uniformInt(0, live_nodes.size() - 1))];
                if (producesValue(g.node(n).cls))
                    return n;
            }
            return invalidNode;
        };

        for (int i = 0; i < 4; ++i)
            spawn(OpClass::IntAlu);

        // compact(): the oracle and the test's own edge ids follow
        // the renumbering, and a graph that held a dead edge comes
        // back with a fresh stamp and none.
        const auto compactAll = [&] {
            const std::vector<EdgeId> ids = compactedIds(g);
            const bool had_dead = g.numEdges() != g.numEdgeSlots();
            const std::uint64_t stamp = g.generation();
            g.compact();
            oracle.onCompact(ids);
            std::vector<EdgeId> kept;
            for (EdgeId e : live_edges) {
                if (ids[static_cast<std::size_t>(e)] != invalidEdge)
                    kept.push_back(ids[static_cast<std::size_t>(e)]);
            }
            live_edges = std::move(kept);
            ASSERT_EQ(g.numEdgeSlots(), g.numEdges());
            if (had_dead)
                ASSERT_NE(g.generation(), stamp);
        };

        for (int step = 0; step < 300; ++step) {
            const std::size_t op =
                rng.weightedIndex({3, 6, 2, 1, 1, 0.5, 2});
            if (op == 0) { // addNode
                const double pick = rng.uniformReal();
                spawn(pick < 0.5   ? OpClass::IntAlu
                      : pick < 0.7 ? OpClass::FpAlu
                      : pick < 0.9 ? OpClass::Load
                                   : OpClass::Store);
            } else if (op == 1) { // addEdge
                const NodeId dst = live_nodes[static_cast<std::size_t>(
                    rng.uniformInt(0, live_nodes.size() - 1))];
                const bool mem = rng.chance(0.25);
                const NodeId src =
                    mem ? live_nodes[static_cast<std::size_t>(
                              rng.uniformInt(0, live_nodes.size() - 1))]
                        : pickProducer();
                if (src == invalidNode)
                    continue;
                const EdgeId e = g.addEdge(
                    src, dst,
                    mem ? EdgeKind::Memory : EdgeKind::RegFlow,
                    static_cast<int>(rng.uniformInt(0, 3)));
                oracle.onEdge(g, e);
                live_edges.push_back(e);
            } else if (op == 2) { // addReplica
                const NodeId orig =
                    live_nodes[static_cast<std::size_t>(
                        rng.uniformInt(0, live_nodes.size() - 1))];
                const NodeId r = g.addReplica(orig);
                oracle.onNode();
                live_nodes.push_back(r);
            } else if (op == 3 && live_nodes.size() > 4) { // removeNode
                const std::size_t k = static_cast<std::size_t>(
                    rng.uniformInt(0, live_nodes.size() - 1));
                g.removeNode(live_nodes[k]);
                live_nodes.erase(live_nodes.begin() + k);
            } else if (op == 4 && !live_edges.empty()) { // removeEdge
                const std::size_t k = static_cast<std::size_t>(
                    rng.uniformInt(0, live_edges.size() - 1));
                if (g.edge(live_edges[k]).alive)
                    g.removeEdge(live_edges[k]);
                live_edges.erase(live_edges.begin() + k);
            } else if (op == 5) { // removeDeadCode sweep
                Partition part(1, g.numNodeSlots());
                for (NodeId n : g.nodes())
                    part.assign(n, 0);
                ReplicaIndex index(g, part);
                removeDeadCode(g, part, index);
                live_nodes.erase(
                    std::remove_if(live_nodes.begin(), live_nodes.end(),
                                   [&](NodeId n) {
                                       return !g.node(n).alive;
                                   }),
                    live_nodes.end());
                // A sweep may drain everything when no store/live-out
                // root survived; keep the op mix meaningful.
                while (live_nodes.size() < 2)
                    spawn(OpClass::IntAlu);
            } else if (op == 6) { // in-append to a node with out-edges
                NodeId dst = invalidNode;
                for (int tries = 0; tries < 32 && dst == invalidNode;
                     ++tries) {
                    const NodeId n = live_nodes[static_cast<std::size_t>(
                        rng.uniformInt(0, live_nodes.size() - 1))];
                    if (!g.outEdgesRaw(n).empty())
                        dst = n;
                }
                const NodeId src = pickProducer();
                if (dst == invalidNode || src == invalidNode)
                    continue;
                // The append relocates dst's whole block. Views taken
                // before keep reading the old block: the in-list
                // without the new edge, the out-list unchanged.
                const LiveAdjRange in_before = g.inEdges(dst);
                const LiveAdjRange out_before = g.outEdges(dst);
                const std::vector<EdgeId> in_was = in_before.toVector();
                const std::vector<EdgeId> out_was = out_before.toVector();
                const std::vector<EdgeId> raw_in = idsOf(g.inEdgesRaw(dst));
                const std::vector<EdgeId> raw_out =
                    idsOf(g.outEdgesRaw(dst));
                ASSERT_EQ(raw_in, oracle.in[dst]);
                ASSERT_EQ(raw_out, oracle.out[dst]);
                const EdgeId e = g.addEdge(src, dst, EdgeKind::RegFlow,
                                           static_cast<int>(
                                               rng.uniformInt(0, 3)));
                oracle.onEdge(g, e);
                live_edges.push_back(e);
                ASSERT_EQ(in_before.toVector(), in_was);
                ASSERT_EQ(out_before.toVector(), out_was);
                ASSERT_EQ(idsOf(g.inEdgesRaw(dst)), oracle.in[dst]);
                ASSERT_EQ(idsOf(g.outEdgesRaw(dst)), oracle.out[dst]);
                ASSERT_EQ(g.inEdges(dst).toVector().back(), e);
            }
            // Compaction at random quiescent points (no view is held
            // here).
            if (rng.chance(0.05))
                compactAll();
            // Freeze a sharer of the current graph; dropping the
            // oldest one makes storage unshared again mid-stream.
            if (rng.chance(0.05))
                frozen.emplace_back(g, imageOf(g));
            if (!frozen.empty() && rng.chance(0.02)) {
                checkFrozen();
                frozen.erase(frozen.begin());
            }
            if (step % 25 == 0) {
                oracle.check(g);
                checkFrozen();
            }
        }
        oracle.check(g);
        compactAll();
        oracle.check(g);
        checkFrozen();

        // Tombstone accounting survives the whole interleaving.
        int alive_nodes = 0;
        for (NodeId n = 0; n < g.numNodeSlots(); ++n)
            alive_nodes += g.node(n).alive ? 1 : 0;
        EXPECT_EQ(alive_nodes, g.numNodes());
        int alive_edges = 0;
        for (EdgeId e = 0; e < g.numEdgeSlots(); ++e)
            alive_edges += g.edge(e).alive ? 1 : 0;
        EXPECT_EQ(alive_edges, g.numEdges());
    }
}

/**
 * Do @p a and @p b hold the same graph? Counts, node and edge records,
 * every node slot's raw spans and every live node's filtering views;
 * stamps are compared by the callers.
 */
void
expectSameGraph(const Ddg &a, const Ddg &b)
{
    ASSERT_EQ(a.numNodeSlots(), b.numNodeSlots());
    ASSERT_EQ(a.numEdgeSlots(), b.numEdgeSlots());
    ASSERT_EQ(a.numNodes(), b.numNodes());
    ASSERT_EQ(a.numEdges(), b.numEdges());
    ASSERT_EQ(a.nodes().toVector(), b.nodes().toVector());
    ASSERT_EQ(a.edges().toVector(), b.edges().toVector());
    for (EdgeId e = 0; e < a.numEdgeSlots(); ++e) {
        ASSERT_EQ(std::memcmp(&a.edge(e), &b.edge(e), sizeof(DdgEdge)), 0)
            << "edge " << e;
    }
    for (NodeId n = 0; n < a.numNodeSlots(); ++n) {
        ASSERT_EQ(std::memcmp(&a.node(n), &b.node(n), sizeof(DdgNode)), 0)
            << "node " << n;
        ASSERT_EQ(idsOf(a.inEdgesRaw(n)), idsOf(b.inEdgesRaw(n)))
            << "in-span of node " << n;
        ASSERT_EQ(idsOf(a.outEdgesRaw(n)), idsOf(b.outEdgesRaw(n)))
            << "out-span of node " << n;
        if (!a.node(n).alive)
            continue;
        ASSERT_EQ(a.inEdges(n).toVector(), b.inEdges(n).toVector())
            << "inEdges of node " << n;
        ASSERT_EQ(a.outEdges(n).toVector(), b.outEdges(n).toVector())
            << "outEdges of node " << n;
        ASSERT_EQ(a.flowPreds(n).toVector(), b.flowPreds(n).toVector())
            << "flowPreds of node " << n;
        ASSERT_EQ(a.flowSuccs(n).toVector(), b.flowSuccs(n).toVector())
            << "flowSuccs of node " << n;
    }
}

/** Live edge ids of @p g mapped to their records, in id order. */
std::vector<std::string>
liveEdgeRecords(const Ddg &g)
{
    std::vector<std::string> recs;
    for (EdgeId e : g.edges()) {
        const DdgEdge &rec = g.edge(e);
        recs.emplace_back(reinterpret_cast<const char *>(&rec),
                          sizeof rec);
    }
    return recs;
}

/** The bytes of node or edge record @p r. */
template <typename Record>
std::string
bytesOf(const Record &r)
{
    return std::string(reinterpret_cast<const char *>(&r), sizeof r);
}

/**
 * Freeze a copy of @p g, a copy of @p base mutated through the
 * structural mutators (not compacted), against @p base, and check the
 * records' conversion against @p g: the same node slots and records,
 * @p g's records in @p base's edge slots, @p g's later live edges
 * appended densely in order, and every view equal to @p g's once the
 * appended edge ids are mapped back. The records own exactly their
 * appended records and tombstone words.
 * @return the records
 */
DdgRecords
expectFreezeMatchesLiveGraph(const Ddg &base, const Ddg &g)
{
    Ddg doomed = g;
    DdgRecords rec = std::move(doomed).freeze(base);
    EXPECT_EQ(doomed.numNodeSlots(), 0);
    EXPECT_EQ(doomed.numEdgeSlots(), 0);
    EXPECT_EQ(rec.generation(), g.generation());
    EXPECT_EQ(rec.numNodeSlots(), g.numNodeSlots());
    EXPECT_EQ(rec.numNodes(), g.numNodes());
    EXPECT_EQ(rec.numEdges(), g.numEdges());

    const Ddg back = rec;
    EXPECT_EQ(back.generation(), g.generation());
    EXPECT_EQ(back.numNodeSlots(), g.numNodeSlots());
    EXPECT_EQ(back.numNodes(), g.numNodes());
    EXPECT_EQ(back.numEdges(), g.numEdges());
    EXPECT_EQ(back.nodes().toVector(), g.nodes().toVector());
    for (NodeId n = 0; n < std::min(back.numNodeSlots(), g.numNodeSlots());
         ++n)
        EXPECT_EQ(bytesOf(back.node(n)), bytesOf(g.node(n))) << "node " << n;
    EXPECT_EQ(liveEdgeRecords(back), liveEdgeRecords(g));

    // Base edge slots keep their ids; the live edges after them follow
    // densely. to_g maps each of back's edge ids to g's.
    const int bn = base.numNodeSlots(), be = base.numEdgeSlots();
    std::vector<EdgeId> to_g;
    for (EdgeId e = 0; e < g.numEdgeSlots(); ++e) {
        if (e < be || g.edge(e).alive)
            to_g.push_back(e);
    }
    EXPECT_EQ(back.numEdgeSlots(), static_cast<int>(to_g.size()));
    for (EdgeId e = 0; e < back.numEdgeSlots() &&
                       e < static_cast<EdgeId>(to_g.size());
         ++e) {
        EXPECT_EQ(bytesOf(back.edge(e)),
                  bytesOf(g.edge(to_g[static_cast<std::size_t>(e)])))
            << "edge " << e;
    }
    const auto mapped = [&](const LiveAdjRange &range) {
        std::vector<EdgeId> ids;
        for (EdgeId e : range) {
            const auto i = static_cast<std::size_t>(e);
            ids.push_back(i < to_g.size() ? to_g[i] : invalidEdge);
        }
        return ids;
    };
    for (NodeId n : g.nodes()) {
        EXPECT_EQ(mapped(back.inEdges(n)), g.inEdges(n).toVector())
            << "inEdges of node " << n;
        EXPECT_EQ(mapped(back.outEdges(n)), g.outEdges(n).toVector())
            << "outEdges of node " << n;
        EXPECT_EQ(back.flowPreds(n).toVector(), g.flowPreds(n).toVector())
            << "flowPreds of node " << n;
        EXPECT_EQ(back.flowSuccs(n).toVector(), g.flowSuccs(n).toVector())
            << "flowSuccs of node " << n;
    }

    int removed = 0;
    for (NodeId n = 0; n < bn; ++n)
        removed += base.node(n).alive && !g.node(n).alive;
    for (EdgeId e = 0; e < be; ++e)
        removed += base.edge(e).alive && !g.edge(e).alive;
    const std::size_t added_nodes =
        static_cast<std::size_t>(back.numNodeSlots() - bn);
    const std::size_t added_edges =
        static_cast<std::size_t>(back.numEdgeSlots() - be);
    const std::size_t owned =
        added_nodes + added_edges + static_cast<std::size_t>(removed)
            ? 8 * added_nodes + 16 * added_edges +
                  8 * static_cast<std::size_t>((bn + be + 63) / 64)
            : 0;
    EXPECT_EQ(rec.ownedBytes(), owned);
    return rec;
}

/**
 * Freeze fuzz: each round builds a random base graph (tombstones
 * included) and mutates a copy of it with random addNode (copies
 * included) / addEdge / addReplica / removeNode / removeEdge
 * interleavings, never compacting it, as compile() mutates its work
 * graph. At random points a copy is frozen against the base and its
 * conversion checked against the live graph
 * (expectFreezeMatchesLiveGraph), and the graph's records as they
 * stand (`DdgRecords(const Ddg &)`) convert back to a graph equal to
 * it, spans and views included. Records kept along the way must keep
 * their bytes while the graph they came from mutates on, and the base
 * is never written.
 */
TEST(DdgArena, RecordsRoundTripFuzzMatchesLiveGraph)
{
    Rng rng(20261019);
    int round_trips = 0;
    for (int round = 0; round < 6; ++round) {
        Ddg g;
        std::vector<NodeId> live_nodes;
        const auto pick = [&] {
            return live_nodes[static_cast<std::size_t>(
                rng.uniformInt(0, live_nodes.size() - 1))];
        };
        const auto spawn = [&](OpClass cls) {
            live_nodes.push_back(g.addNode(cls));
        };
        const auto mutate = [&] {
            const std::size_t op = rng.weightedIndex({3, 8, 2, 1, 2});
            if (op == 0) { // addNode
                const double p = rng.uniformReal();
                spawn(p < 0.4   ? OpClass::IntAlu
                      : p < 0.6 ? OpClass::FpAlu
                      : p < 0.8 ? OpClass::Load
                      : p < 0.9 ? OpClass::Store
                                : OpClass::Copy);
            } else if (op == 1) { // addEdge
                const NodeId dst = pick();
                const bool mem = rng.chance(0.25);
                NodeId src = pick();
                for (int tries = 0;
                     !mem && !producesValue(g.node(src).cls) && tries < 32;
                     ++tries)
                    src = pick();
                if (!mem && !producesValue(g.node(src).cls))
                    return;
                g.addEdge(src, dst,
                          mem ? EdgeKind::Memory : EdgeKind::RegFlow,
                          static_cast<int>(rng.uniformInt(0, 3)));
            } else if (op == 2) { // addReplica
                live_nodes.push_back(g.addReplica(pick()));
            } else if (op == 3 && live_nodes.size() > 4) { // removeNode
                const std::size_t k = static_cast<std::size_t>(
                    rng.uniformInt(0, live_nodes.size() - 1));
                g.removeNode(live_nodes[k]);
                live_nodes.erase(live_nodes.begin() +
                                 static_cast<std::ptrdiff_t>(k));
            } else if (op == 4 && g.numEdges() > 0) { // removeEdge
                const std::vector<EdgeId> live = g.edges().toVector();
                g.removeEdge(live[static_cast<std::size_t>(
                    rng.uniformInt(0, live.size() - 1))]);
            }
        };
        for (int i = 0; i < 4; ++i)
            spawn(OpClass::IntAlu);
        for (int step = 0; step < 60; ++step)
            mutate();
        const Ddg base = g;
        const std::string base_image = imageOf(base);

        // An unchanged copy is its base's records and nothing more.
        {
            Ddg copy = base;
            const DdgRecords same = std::move(copy).freeze(base);
            EXPECT_EQ(same.ownedBytes(), 0u);
            EXPECT_EQ(same.generation(), base.generation());
            ASSERT_NO_FATAL_FAILURE(expectSameGraph(Ddg(same), base));
        }

        std::vector<std::pair<DdgRecords, std::string>> kept;
        for (int step = 0; step < 250; ++step) {
            mutate();
            if (rng.chance(0.1)) {
                const DdgRecords rec = expectFreezeMatchesLiveGraph(base, g);
                // The graph's records as they stand own nothing and
                // convert back to the graph itself.
                const DdgRecords as_is(g);
                EXPECT_EQ(as_is.ownedBytes(), 0u);
                EXPECT_EQ(as_is.generation(), g.generation());
                ASSERT_NO_FATAL_FAILURE(expectSameGraph(Ddg(as_is), g));
                ASSERT_FALSE(HasFailure()) << "round " << round
                                           << " step " << step;
                ++round_trips;
                if (rng.chance(0.3)) {
                    kept.emplace_back(rec, imageOf(Ddg(rec)));
                    kept.emplace_back(as_is, imageOf(g));
                }
            }
        }
        expectFreezeMatchesLiveGraph(base, g);
        ASSERT_FALSE(HasFailure()) << "round " << round;
        for (const auto &[rec, image] : kept)
            ASSERT_EQ(imageOf(Ddg(rec)), image) << "a write leaked";
        ASSERT_EQ(imageOf(base), base_image) << "the base was written";
    }
    EXPECT_GT(round_trips, 100);
}

/**
 * freeze() takes a graph whose base node records differ from the
 * base's only in a cleared `alive`; a changed record (or a dead base
 * node come back alive, or fewer node slots) throws
 * std::invalid_argument and leaves the graph as it was.
 */
TEST(DdgArena, FreezeRejectsAChangedBaseNodeRecord)
{
    SmallGraph s;
    const Ddg base = s.g;

    // Each field of a base record but `alive`.
    const std::function<void(DdgNode &)> edits[] = {
        [](DdgNode &n) { n.cls = OpClass::FpAlu; },
        [](DdgNode &n) { n.semanticId = 0; },
        [](DdgNode &n) { n.isReplica = true; },
        [](DdgNode &n) { n.isSpill = true; },
        [](DdgNode &n) { n.liveOut = true; },
    };
    for (const auto &edit : edits) {
        Ddg changed = base;
        edit(changed.node(s.b));
        const std::string image = imageOf(changed);
        EXPECT_THROW(std::move(changed).freeze(base),
                     std::invalid_argument);
        EXPECT_EQ(imageOf(changed), image) << "a failed freeze wrote";
    }

    Ddg removed = base;
    removed.removeNode(s.c);
    Ddg revived = removed;
    revived.node(s.c).alive = true;
    EXPECT_THROW(std::move(revived).freeze(removed),
                 std::invalid_argument);

    Ddg fewer;
    fewer.addNode(OpClass::Load);
    EXPECT_THROW(std::move(fewer).freeze(base), std::invalid_argument);

    // A removed node is a tombstone, not a change.
    const DdgRecords rec = std::move(removed).freeze(base);
    EXPECT_FALSE(Ddg(rec).node(s.c).alive);
    EXPECT_EQ(rec.numNodes(), 2);
    EXPECT_EQ(rec.numEdges(), 1);
    EXPECT_EQ(rec.ownedBytes(), 8u);
}

/**
 * freeze() diffs edges by position: edge slot j below the base's
 * count must hold the base's edge j, alive or removed. A copy whose
 * base edge record changed, whose removed edge came back alive, that
 * holds fewer edge slots, or that was compacted after an edge removal
 * (its later edges moved down a slot) throws std::invalid_argument
 * naming the first such slot and leaves the graph as it was.
 */
TEST(DdgArena, FreezeRejectsAChangedOrCompactedBaseEdgeRecord)
{
    SmallGraph s;
    const Ddg base = s.g;

    // Each field of a base record but `alive`.
    const std::function<void(DdgEdge &)> edits[] = {
        [&](DdgEdge &e) { e.src = s.b; },
        [&](DdgEdge &e) { e.dst = s.c; },
        [](DdgEdge &e) { e.distance = 2; },
        [](DdgEdge &e) { e.memLatency = 5; },
        [](DdgEdge &e) { e.kind = EdgeKind::Memory; },
    };
    for (const auto &edit : edits) {
        Ddg changed = base;
        edit(changed.edge(s.ca));
        const std::string image = imageOf(changed);
        EXPECT_INVALID_ARGUMENT(std::move(changed).freeze(base),
                                "edge slot " + std::to_string(s.ca));
        EXPECT_EQ(imageOf(changed), image) << "a failed freeze wrote";
    }

    Ddg removed = base;
    removed.removeEdge(s.bc);
    Ddg revived = removed;
    revived.edge(s.bc).alive = true;
    EXPECT_INVALID_ARGUMENT(std::move(revived).freeze(removed),
                            "edge slot " + std::to_string(s.bc));

    Ddg fewer;
    for (NodeId n : base.nodes())
        fewer.addNode(base.node(n).cls);
    fewer.addEdge(s.a, s.b, EdgeKind::RegFlow);
    EXPECT_INVALID_ARGUMENT(std::move(fewer).freeze(base),
                            "edge slot " + std::to_string(s.bc));

    // Compaction drops bc's slot, so ca's record lands in it.
    Ddg compacted = removed;
    compacted.compact();
    ASSERT_EQ(compacted.numEdgeSlots(), base.numEdgeSlots() - 1);
    const std::string image = imageOf(compacted);
    EXPECT_INVALID_ARGUMENT(std::move(compacted).freeze(base),
                            "edge slot " + std::to_string(s.bc));
    EXPECT_EQ(imageOf(compacted), image) << "a failed freeze wrote";

    // Uncompacted, the removed edge is a tombstone, not a change.
    const DdgRecords rec = std::move(removed).freeze(base);
    EXPECT_FALSE(Ddg(rec).edge(s.bc).alive);
    EXPECT_EQ(rec.numEdges(), 3);
    EXPECT_EQ(rec.ownedBytes(), 8u);
}

/**
 * A block grows in place while the arena entry just past it is
 * `invalidEdge` (for an in-edge, only while its out-list is empty)
 * and relocates otherwise. Three hubs' in- and out-lists and their
 * sinks' in-lists grow in turn, so relocated regions abut, and every
 * in-edge to a hub moves the hub's whole block. compact() at round 20
 * leaves every block without slack. A copy taken midway shares the
 * arena until the next append clones it. Every list must match the
 * vector model after every append, and the copy its own model.
 */
TEST(DdgArena, InterleavedGrowthThroughRelocationsMatchesModel)
{
    Ddg g;
    AdjOracle model;
    const auto spawn = [&](OpClass cls) {
        model.onNode();
        return g.addNode(cls);
    };
    const NodeId hubs[] = {spawn(OpClass::IntAlu), spawn(OpClass::Load),
                           spawn(OpClass::FpAlu)};
    std::optional<Ddg> copy;
    AdjOracle copy_model;
    for (int round = 0; round < 48; ++round) {
        const NodeId sink = spawn(OpClass::Store);
        for (const NodeId hub : hubs) {
            model.onEdge(g, g.addEdge(hub, sink, EdgeKind::RegFlow, 0));
            model.check(g);
            model.onEdge(g, g.addEdge(sink, hub, EdgeKind::Memory, 1));
            model.check(g);
        }
        if (round == 12) {
            copy.emplace(g);
            copy_model = model;
        }
        if (round == 20)
            g.compact();
        if (copy)
            copy_model.check(*copy);
    }
    EXPECT_EQ(g.outEdges(hubs[1]).size(), 48u);
    EXPECT_EQ(g.inEdges(hubs[2]).size(), 48u);
}

/** A graph's slot arrays, copied out for DdgRecords::fromSlots. */
struct Slots
{
    std::vector<DdgNode> nodes;
    std::vector<DdgEdge> edges;

    explicit Slots(const Ddg &g)
    {
        for (NodeId n = 0; n < g.numNodeSlots(); ++n)
            nodes.push_back(g.node(n));
        for (EdgeId e = 0; e < g.numEdgeSlots(); ++e)
            edges.push_back(g.edge(e));
    }

    DdgRecords build() const
    {
        return DdgRecords::fromSlots(
            nodes.data(), static_cast<std::uint32_t>(nodes.size()),
            edges.data(), static_cast<std::uint32_t>(edges.size()));
    }
};

/** A graph converted from fromSlots' records must carry exactly-sized
 *  spans that still grow correctly when mutated afterwards. */
TEST(DdgArena, FromSlotsCompactArenaGrowsAfterLoad)
{
    SmallGraph s;
    s.g.removeEdge(s.bc);
    Ddg loaded = Slots(s.g).build();

    for (NodeId n = 0; n < s.g.numNodeSlots(); ++n) {
        const EdgeSpan a = s.g.inEdgesRaw(n), b = loaded.inEdgesRaw(n);
        EXPECT_EQ(std::vector<EdgeId>(a.begin(), a.end()),
                  std::vector<EdgeId>(b.begin(), b.end()));
    }

    // Post-load mutations relocate the exactly-sized spans.
    const NodeId d = loaded.addNode(OpClass::Store);
    const EdgeId ad = loaded.addEdge(s.a, d, EdgeKind::RegFlow, 0);
    std::vector<EdgeId> out_a = loaded.outEdges(s.a).toVector();
    EXPECT_EQ(out_a.back(), ad);
    EXPECT_EQ(out_a.size(), s.g.outEdges(s.a).size() + 1);
}

/**
 * compact() rebuilds a relocation-grown graph from its live edges:
 * node slots and flags are unchanged, dead edges are gone, live edges
 * keep their fields and order under dense new ids, every span equals
 * the oracle's renumbered span, and the stamp is fresh. A second call
 * finds nothing to drop and keeps the stamp, and the graph keeps
 * growing correctly afterwards.
 */
TEST(DdgArena, CompactKeepsOnlyLiveEdgesAndRestamps)
{
    // Heavy fan-out on one node forces repeated block relocations, and
    // in-edges to that node (which has out-edges) move its whole block
    // each time, so the arena accumulates dead regions and slack.
    Ddg g;
    AdjOracle oracle;
    const auto spawn = [&] {
        oracle.onNode();
        return g.addNode(OpClass::IntAlu);
    };
    const NodeId hub = spawn();
    std::vector<NodeId> leaves;
    for (int i = 0; i < 37; ++i) {
        leaves.push_back(spawn());
        oracle.onEdge(g, g.addEdge(hub, leaves.back(), EdgeKind::RegFlow,
                                   0));
    }
    for (int i = 0; i < 5; ++i) {
        oracle.onEdge(g, g.addEdge(leaves[static_cast<std::size_t>(i)],
                                   hub, EdgeKind::Memory, 1, 2));
    }
    g.node(leaves[9]).liveOut = true;
    g.removeNode(leaves[3]); // two dead edges and a dead node slot
    g.removeEdge(g.outEdgesRaw(hub)[7]);

    std::vector<DdgNode> nodes_was;
    for (NodeId n = 0; n < g.numNodeSlots(); ++n)
        nodes_was.push_back(g.node(n));
    std::vector<DdgEdge> live_was;
    for (EdgeId e = 0; e < g.numEdgeSlots(); ++e) {
        if (g.edge(e).alive)
            live_was.push_back(g.edge(e));
    }
    ASSERT_EQ(live_was.size(), 39u);
    const std::vector<EdgeId> ids = compactedIds(g);
    const std::uint64_t stamp = g.generation();

    g.compact();
    oracle.onCompact(ids);

    EXPECT_NE(g.generation(), stamp) << "edge ids changed";
    ASSERT_EQ(g.numNodeSlots(), static_cast<int>(nodes_was.size()));
    EXPECT_EQ(g.numNodes(), 37);
    for (NodeId n = 0; n < g.numNodeSlots(); ++n) {
        EXPECT_EQ(std::memcmp(&g.node(n), &nodes_was[n], sizeof(DdgNode)),
                  0)
            << "node " << n;
    }
    ASSERT_EQ(g.numEdgeSlots(), static_cast<int>(live_was.size()));
    EXPECT_EQ(g.numEdges(), g.numEdgeSlots());
    for (EdgeId e = 0; e < g.numEdgeSlots(); ++e) {
        EXPECT_EQ(std::memcmp(&g.edge(e), &live_was[e], sizeof(DdgEdge)),
                  0)
            << "edge " << e;
    }
    oracle.check(g);

    // Compact twice: nothing is left to drop, so the stamp stays.
    const std::uint64_t fresh = g.generation();
    g.compact();
    EXPECT_EQ(g.generation(), fresh);
    oracle.check(g);

    // Growth from blocks without slack relocates cleanly again.
    const NodeId extra = spawn();
    oracle.onEdge(g, g.addEdge(hub, extra, EdgeKind::RegFlow, 0));
    oracle.onEdge(g, g.addEdge(extra, hub, EdgeKind::RegFlow, 1));
    oracle.check(g);
}

/**
 * An in-append to a node that has out-edges moves its whole block to
 * the arena tail, at twice its length: the in-span, the new id, then
 * the out-span. Views and raw spans taken before and after match the
 * oracle, and the stale views keep reading the old block. A node
 * without out-edges takes in-edges in place while its block has
 * slack.
 */
TEST(DdgArena, InAppendToANodeWithOutEdgesMovesItsBlock)
{
    // The converted layout: node 0's block holds its two out-edges
    // at arena offset 0, v's block (two in, three out) follows at 2.
    Ddg seed;
    for (int i = 0; i < 5; ++i)
        seed.addNode(OpClass::IntAlu);
    const NodeId v = 1;
    seed.addEdge(0, v, EdgeKind::RegFlow, 0);
    seed.addEdge(0, v, EdgeKind::RegFlow, 1);
    for (NodeId to : {2, 3, 4})
        seed.addEdge(v, to, EdgeKind::RegFlow, 0);
    Ddg g = Slots(seed).build();
    AdjOracle oracle;
    for (int i = 0; i < 5; ++i)
        oracle.onNode();
    for (EdgeId e = 0; e < 5; ++e)
        oracle.onEdge(g, e);
    oracle.check(g);

    // Arena positions, measured from node 0's block, which never moves.
    const auto at = [&](EdgeSpan span) {
        return span.begin() - g.outEdgesRaw(0).begin();
    };
    EXPECT_EQ(at(g.inEdgesRaw(v)), 2);
    EXPECT_EQ(g.inEdgesRaw(v).end(), g.outEdgesRaw(v).begin());

    const LiveAdjRange in_before = g.inEdges(v);
    const LiveAdjRange out_before = g.outEdges(v);
    const FlowNeighborRange preds_before = g.flowPreds(v);
    const std::vector<EdgeId> raw_in = idsOf(g.inEdgesRaw(v));
    const std::vector<EdgeId> raw_out = idsOf(g.outEdgesRaw(v));
    EXPECT_EQ(raw_in, (std::vector<EdgeId>{0, 1}));
    EXPECT_EQ(raw_out, (std::vector<EdgeId>{2, 3, 4}));

    // Node 3's out-append moves its one-slot block to the tail (the
    // arena held 10 ids; it now holds 12), then v's five-slot block
    // follows it with room for ten.
    const EdgeId e = g.addEdge(3, v, EdgeKind::RegFlow, 1);
    oracle.onEdge(g, e);
    oracle.check(g);
    EXPECT_EQ(at(g.inEdgesRaw(v)), 12);
    EXPECT_EQ(g.inEdgesRaw(v).end(), g.outEdgesRaw(v).begin());
    EXPECT_EQ(idsOf(g.inEdgesRaw(v)), (std::vector<EdgeId>{0, 1, e}));
    EXPECT_EQ(idsOf(g.outEdgesRaw(v)), raw_out);
    EXPECT_EQ(in_before.toVector(), raw_in) << "stale in-view";
    EXPECT_EQ(out_before.toVector(), raw_out) << "stale out-view";
    EXPECT_EQ(preds_before.toVector(), (std::vector<NodeId>{0, 0}));
    EXPECT_EQ(g.flowPreds(v).toVector(), (std::vector<NodeId>{0, 0, 3}));

    // Its slack does not help the next in-edge: the out-list is in the
    // way, so the block moves again. Node 4's block moves to 22 first
    // (two slots), so v's lands at 24, with room for twelve.
    oracle.onEdge(g, g.addEdge(4, v, EdgeKind::Memory, 0, 3));
    oracle.check(g);
    EXPECT_EQ(at(g.inEdgesRaw(v)), 24);

    // Node 2 has no out-edges: its full block moves on each of two
    // in-edges (to two, then four slots) and takes the third in place.
    oracle.onEdge(g, g.addEdge(4, 2, EdgeKind::RegFlow, 0));
    oracle.onEdge(g, g.addEdge(4, 2, EdgeKind::RegFlow, 1));
    const auto node2 = at(g.inEdgesRaw(2));
    oracle.onEdge(g, g.addEdge(4, 2, EdgeKind::RegFlow, 2));
    EXPECT_EQ(at(g.inEdgesRaw(2)), node2);
    EXPECT_EQ(g.inEdgesRaw(2).size(), 4u);
    oracle.check(g);
}

/**
 * A node holds up to 65,535 edge slots each way, through fromSlots
 * and addEdge alike. The next edge is rejected: fromSlots, which
 * counts the spans without building them, names its row, and addEdge
 * throws std::invalid_argument and leaves the graph unchanged.
 */
TEST(DdgArena, SpanLimitIs65535SlotsEachWay)
{
    constexpr int limit = Ddg::maxSpanSlots;
    static_assert(limit == 65535);
    Ddg g;
    const NodeId src = g.addNode(OpClass::IntAlu);
    const NodeId hub = g.addNode(OpClass::IntAlu);
    const NodeId dst = g.addNode(OpClass::Store);
    const NodeId spare_src = g.addNode(OpClass::IntAlu);
    const NodeId spare_dst = g.addNode(OpClass::Store);
    for (int i = 0; i < limit; ++i)
        g.addEdge(src, hub, EdgeKind::RegFlow, i % 3);
    for (int i = 0; i < limit; ++i)
        g.addEdge(hub, dst, EdgeKind::RegFlow, 0);
    EXPECT_EQ(g.inEdgesRaw(hub).size(), 65535u);
    EXPECT_EQ(g.outEdgesRaw(hub).size(), 65535u);
    EXPECT_EQ(g.inEdges(hub).size(), 65535u);
    EXPECT_EQ(g.flowSuccs(hub).size(), 65535u);

    const std::string image = imageOf(g);
    const std::uint64_t stamp = g.generation();
    EXPECT_INVALID_ARGUMENT(g.addEdge(spare_src, hub, EdgeKind::RegFlow, 0),
                            "more than 65535 in-edge slots on n1");
    EXPECT_INVALID_ARGUMENT(g.addEdge(hub, spare_dst, EdgeKind::RegFlow, 0),
                            "more than 65535 out-edge slots on n1");
    EXPECT_EQ(g.generation(), stamp);
    EXPECT_EQ(imageOf(g), image) << "a rejected edge wrote the graph";
    g.addEdge(spare_src, spare_dst, EdgeKind::RegFlow, 0);
    EXPECT_EQ(g.numEdges(), 2 * limit + 1);

    const Slots slots(g);
    const Ddg built = slots.build();
    EXPECT_EQ(built.inEdgesRaw(hub).size(), 65535u);
    EXPECT_EQ(built.outEdgesRaw(hub).size(), 65535u);
    EXPECT_EQ(idsOf(built.outEdgesRaw(hub)), idsOf(g.outEdgesRaw(hub)));
    const std::pair<NodeId, NodeId> past[] = {{spare_src, hub},
                                              {hub, spare_dst}};
    const char *rules[] = {"more than 65535 in-edge slots on n1",
                           "more than 65535 out-edge slots on n1"};
    for (int k = 0; k < 2; ++k) {
        Slots bad = slots;
        DdgEdge extra;
        extra.src = past[k].first;
        extra.dst = past[k].second;
        bad.edges.push_back(extra);
        try {
            bad.build();
            ADD_FAILURE() << "accepted " << rules[k];
        } catch (const DdgSlotError &err) {
            EXPECT_EQ(std::string(err.what()),
                      std::string("edge record row 131071: ") + rules[k]);
        }
    }
}

// --- Bulk construction (DdgRecords::fromSlots). ----------------------

/** Field-by-field equality of two graphs, raw spans included. */
void
expectDdgIdentical(const Ddg &a, const Ddg &b)
{
    ASSERT_EQ(a.numNodeSlots(), b.numNodeSlots());
    ASSERT_EQ(a.numEdgeSlots(), b.numEdgeSlots());
    EXPECT_EQ(a.numNodes(), b.numNodes());
    EXPECT_EQ(a.numEdges(), b.numEdges());
    for (NodeId n = 0; n < a.numNodeSlots(); ++n) {
        const DdgNode &x = a.node(n);
        const DdgNode &y = b.node(n);
        EXPECT_EQ(x.cls, y.cls) << "node " << n;
        EXPECT_EQ(x.semanticId, y.semanticId) << "node " << n;
        EXPECT_EQ(x.isReplica, y.isReplica) << "node " << n;
        EXPECT_EQ(x.isSpill, y.isSpill) << "node " << n;
        EXPECT_EQ(x.liveOut, y.liveOut) << "node " << n;
        EXPECT_EQ(x.alive, y.alive) << "node " << n;
        // Adjacency spans (tombstoned slots included) must hold the
        // same edge ids in the same insertion order.
        const EdgeSpan ai = a.inEdgesRaw(n), bi = b.inEdgesRaw(n);
        EXPECT_EQ(std::vector<EdgeId>(ai.begin(), ai.end()),
                  std::vector<EdgeId>(bi.begin(), bi.end()))
            << "node " << n;
        const EdgeSpan ao = a.outEdgesRaw(n), bo = b.outEdgesRaw(n);
        EXPECT_EQ(std::vector<EdgeId>(ao.begin(), ao.end()),
                  std::vector<EdgeId>(bo.begin(), bo.end()))
            << "node " << n;
    }
    for (EdgeId e = 0; e < a.numEdgeSlots(); ++e) {
        const DdgEdge &x = a.edge(e);
        const DdgEdge &y = b.edge(e);
        EXPECT_EQ(x.src, y.src) << "edge " << e;
        EXPECT_EQ(x.dst, y.dst) << "edge " << e;
        EXPECT_EQ(x.kind, y.kind) << "edge " << e;
        EXPECT_EQ(x.distance, y.distance) << "edge " << e;
        EXPECT_EQ(x.memLatency, y.memLatency) << "edge " << e;
        EXPECT_EQ(x.alive, y.alive) << "edge " << e;
    }
}

/**
 * A graph that holds every op class, all 16 combinations of the node
 * flags, every edge kind, both int16 memLatency extremes, and dead
 * node and edge slots.
 */
Ddg
everyFieldDdg()
{
    Ddg g;
    // Node n has flag bits n and op class n % NumOpClasses.
    const int classes = static_cast<int>(OpClass::NumOpClasses);
    for (NodeId n = 0; n < 16; ++n) {
        g.addNode(static_cast<OpClass>(n % classes));
        g.node(n).isReplica = n & 1;
        g.node(n).isSpill = n & 2;
        g.node(n).liveOut = n & 4;
    }
    const NodeId ld = g.addNode(OpClass::Load);
    const NodeId st = g.addNode(OpClass::Store);
    g.addEdge(ld, st, EdgeKind::RegFlow, 0);
    g.addEdge(st, ld, EdgeKind::Memory, 1, -32768);
    g.addEdge(ld, st, EdgeKind::Memory, 2, 32767);
    g.addEdge(st, ld, EdgeKind::Spill, 3);
    g.removeEdge(g.addEdge(ld, ld, EdgeKind::RegFlow, 1));
    g.addEdge(ld, 0, EdgeKind::Memory, 0, 7); // dies with node 0
    for (NodeId n = 0; n < 8; ++n)
        g.removeNode(n); // flag bit 3 (alive) clear
    return g;
}

TEST(DdgSlots, FromSlotsRebuildsEveryFieldExactly)
{
    // Removal history, replicas and spill/live-out flags: shapes the
    // generator never emits but the pipeline does.
    Ddg history;
    {
        Ddg &g = history;
        const NodeId a = g.addNode(OpClass::Load);
        const NodeId b = g.addNode(OpClass::IntAlu);
        const NodeId c = g.addNode(OpClass::FpMul);
        const NodeId d = g.addNode(OpClass::Store);
        const NodeId r = g.addReplica(b);
        g.node(c).liveOut = true;
        g.node(a).isSpill = true;
        g.addEdge(a, b, EdgeKind::RegFlow, 0);
        const EdgeId bc = g.addEdge(b, c, EdgeKind::RegFlow, 1);
        g.addEdge(c, d, EdgeKind::RegFlow, 0);
        g.addEdge(a, d, EdgeKind::Memory, 2, 3);
        g.addEdge(a, r, EdgeKind::RegFlow, 0);
        g.addEdge(r, c, EdgeKind::Spill, 1);
        g.removeEdge(bc);
        g.removeNode(b); // dead slot between live ones
    }
    // Spans that relocated many times while they grew.
    Ddg fan_out;
    const NodeId hub = fan_out.addNode(OpClass::IntAlu);
    for (int i = 0; i < 37; ++i)
        fan_out.addEdge(hub, fan_out.addNode(OpClass::IntAlu),
                        EdgeKind::RegFlow, 0);
    const Ddg every = everyFieldDdg();

    const Ddg empty;
    const Ddg *const graphs[] = {&empty, &history, &fan_out, &every};
    for (const Ddg *g : graphs) {
        SCOPED_TRACE(std::to_string(g->numNodeSlots()) + "-slot graph");
        expectDdgIdentical(*g, Slots(*g).build());
    }

    // Bit-field order is implementation-defined: the rebuilt flags
    // read back as written, for every combination.
    const Ddg g = Slots(every).build();
    for (NodeId n = 0; n < 16; ++n) {
        const DdgNode &x = g.node(n);
        EXPECT_EQ(x.isReplica | x.isSpill << 1 | x.liveOut << 2 |
                      x.alive << 3,
                  n);
    }
    EXPECT_EQ(g.edge(1).memLatency, -32768);
    EXPECT_EQ(g.edge(2).memLatency, 32767);
    EXPECT_EQ(g.edge(3).kind, EdgeKind::Spill);
    EXPECT_FALSE(g.edge(4).alive);
    EXPECT_FALSE(g.edge(5).alive);
}

TEST(DdgSlots, FromSlotsRejectsEachStructuralRule)
{
    // One edited field per row of everyFieldDdg()'s slots: node 9 is
    // live and node 3 dead; edge 1 is a live Memory edge st -> ld and
    // edge 2 a live Memory edge ld -> st at distance 2.
    const Slots clean(everyFieldDdg());
    ASSERT_EQ(clean.nodes.size(), 18u);
    ASSERT_NO_THROW(clean.build());
    struct Case
    {
        const char *what;
        void (*edit)(Slots &);
        const char *row;
        const char *rule;
    };
    const char *in_node9 = "node record row 9";
    const char *in_edge1 = "edge record row 1";
    const char *in_edge2 = "edge record row 2";
    const char *endpoint_rule = "endpoint outside the node array";
    const Case cases[] = {
        {"op class one past the last",
         [](Slots &s) { s.nodes[9].cls = OpClass::NumOpClasses; },
         in_node9, "op class 9 outside the op classes"},
        {"op class 200",
         [](Slots &s) { s.nodes[9].cls = static_cast<OpClass>(200); },
         in_node9, "op class 200 outside the op classes"},
        {"negative semantic id",
         [](Slots &s) { s.nodes[9].semanticId = -1; }, in_node9,
         "semantic id -1 outside the node array"},
        {"semantic id one past the last slot",
         [](Slots &s) { s.nodes[9].semanticId = 18; }, in_node9,
         "semantic id 18 outside the node array"},
        {"edge kind one past Spill",
         [](Slots &s) {
             s.edges[2].kind = static_cast<EdgeKind>(
                 static_cast<int>(EdgeKind::Spill) + 1);
         },
         in_edge2, "edge kind 3 outside the edge kinds"},
        {"negative edge source", [](Slots &s) { s.edges[2].src = -1; },
         in_edge2, endpoint_rule},
        {"edge target one past the last slot",
         [](Slots &s) {
             s.edges[2].dst = static_cast<NodeId>(s.nodes.size());
         },
         in_edge2, endpoint_rule},
        {"negative distance", [](Slots &s) { s.edges[2].distance = -1; },
         in_edge2, "negative distance"},
        {"live edge into dead node 3", [](Slots &s) { s.edges[2].dst = 3; },
         in_edge2, "live edge on a dead node"},
        {"flow edge from a store",
         [](Slots &s) { s.edges[1].kind = EdgeKind::RegFlow; }, in_edge1,
         "flow edge from a non-value-producing op"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        Slots bad = clean;
        c.edit(bad);
        try {
            bad.build();
            ADD_FAILURE() << "accepted";
        } catch (const DdgSlotError &err) {
            EXPECT_EQ(std::string(err.what()),
                      std::string(c.row) + ": " + c.rule);
        }
    }
}

// --- Copy-on-write storage. -------------------------------------------

/** Heap allocations @p fn makes (counted via the global operator-new
 *  hook above). */
template <typename Fn>
std::size_t
allocsDuring(Fn &&fn)
{
    g_new_calls.store(0, std::memory_order_relaxed);
    g_count_news.store(true, std::memory_order_relaxed);
    fn();
    g_count_news.store(false, std::memory_order_relaxed);
    return g_new_calls.load(std::memory_order_relaxed);
}

/**
 * Records from fromSlots are their two exactly-sized record arrays
 * and no adjacency: a load allocates those two arrays alone, and they
 * own nothing beyond them. A conversion shares them and allocates the
 * arena and the block array alone.
 */
TEST(DdgSlots, FromSlotsBuildsNoAdjacency)
{
    const Slots slots(everyFieldDdg());
    (void)Ddg(slots.build()); // grows the per-thread span counters
    std::optional<DdgRecords> rec;
    EXPECT_EQ(allocsDuring([&] { rec.emplace(slots.build()); }), 2u);
    EXPECT_EQ(rec->ownedBytes(), 0u);
    EXPECT_EQ(rec->numNodeSlots(), 18);
    std::optional<Ddg> g;
    EXPECT_EQ(allocsDuring([&] { g.emplace(*rec); }), 2u);
    EXPECT_EQ(g->generation(), rec->generation());
    expectDdgIdentical(*g, everyFieldDdg());
}

/** A load feeding a chain of @p n - 1 integer ops. */
Ddg
chain(int n)
{
    Ddg g;
    NodeId prev = g.addNode(OpClass::Load);
    for (int i = 1; i < n; ++i) {
        const NodeId next = g.addNode(OpClass::IntAlu);
        g.addEdge(prev, next, EdgeKind::RegFlow, 0);
        prev = next;
    }
    return g;
}

TEST(DdgShared, GraphCopyDoesNoPerNodeAllocation)
{
    // A copy shares all four arrays, so it allocates nothing at any
    // size. Its first write clones only the arrays it writes, each as
    // one flat buffer copy, so the count never scales with the node
    // count.
    std::size_t first_write[2] = {};
    const int sizes[2] = {16, 128};
    for (int k = 0; k < 2; ++k) {
        const Ddg g = chain(sizes[k]);
        std::optional<Ddg> copy;
        EXPECT_EQ(allocsDuring([&] { copy.emplace(g); }), 0u)
            << sizes[k] << "-node copy allocated";
        EXPECT_EQ(copy->numNodes(), g.numNodes());
        first_write[k] = allocsDuring(
            [&] { copy->addNode(OpClass::IntAlu); });
    }
    EXPECT_EQ(first_write[0], first_write[1])
        << "first-write allocations scale with graph size";
    // addNode writes the node and slot arrays: one clone each.
    EXPECT_GE(first_write[1], 1u) << "counting hook is not engaged";
    EXPECT_LE(first_write[1], 2u);
}

TEST(DdgShared, CopySharesStorage)
{
    const Ddg g = chain(32);
    const Ddg copy(g);
    EXPECT_EQ(copy.inEdgesRaw(1).begin(), g.inEdgesRaw(1).begin());
    EXPECT_EQ(&copy.node(0), &g.node(0));
    EXPECT_EQ(&copy.edge(0), &g.edge(0));
    EXPECT_EQ(copy.generation(), g.generation());
}

TEST(DdgShared, FirstWriteClonesAndLeavesTheOtherSharerBitIdentical)
{
    Ddg a = chain(24);
    const Ddg &ca = a; // reads that must not clone
    const std::string image = imageOf(a);

    // Writes to the copy. A field write clones the node array alone.
    Ddg b(a);
    const Ddg &cb = b;
    b.node(3).liveOut = true;
    EXPECT_NE(&cb.node(0), &ca.node(0));
    EXPECT_EQ(&cb.edge(0), &ca.edge(0));
    EXPECT_EQ(cb.inEdgesRaw(2).begin(), ca.inEdgesRaw(2).begin());
    b.addEdge(0, 5, EdgeKind::RegFlow, 1);
    b.removeNode(7);
    b.addReplica(2);
    b.compact();
    EXPECT_EQ(imageOf(a), image);
    EXPECT_NE(imageOf(b), image);

    // Writes to the original: the copy keeps the old bytes.
    const Ddg c(a);
    a.addNode(OpClass::Store);
    a.addEdge(4, 24, EdgeKind::RegFlow, 0);
    a.removeEdge(0);
    a.node(1).isSpill = true;
    a.compact();
    EXPECT_EQ(imageOf(c), image);
    EXPECT_NE(imageOf(a), image);

    // The stamp is per object: bumping it clones nothing.
    Ddg d(c);
    d.bumpGeneration();
    EXPECT_NE(d.generation(), c.generation());
    EXPECT_EQ(&std::as_const(d).node(0), &c.node(0));
}

TEST(DdgShared, ViewsFollowTheCloneAndOutliveTheOtherSharer)
{
    // Under ASan a view left pointing into the pre-clone storage reads
    // freed memory once the other sharer is gone.
    Ddg g = chain(16);
    auto other = std::make_unique<Ddg>(g);
    const LiveAdjRange out = g.outEdges(2);
    const FlowNeighborRange succs = g.flowSuccs(2);
    const LiveNodeRange nodes = g.nodes();
    const LiveEdgeRange edges = g.edges();
    const std::vector<EdgeId> out_before = out.toVector();

    g.node(9).liveOut = true;
    const NodeId x = g.addNode(OpClass::Store);
    g.addEdge(5, x, EdgeKind::RegFlow, 0);
    g.removeEdge(g.inEdgesRaw(12)[0]);
    other.reset();

    EXPECT_EQ(out.toVector(), out_before);
    EXPECT_EQ(succs.toVector(), std::vector<NodeId>{3});
    EXPECT_EQ(nodes.size(), 17u);
    EXPECT_EQ(edges.size(), 15u); // 15 chain edges, +1 added, -1 removed
    EXPECT_TRUE(g.node(9).liveOut);
}

TEST(DdgShared, ConcurrentCopiesAreRaceFree)
{
    // The pool's workers copy one client graph at once, and a write
    // to a copy clones from storage the other threads are copying.
    Ddg g = chain(64);
    const std::string image = imageOf(g);
    std::atomic<int> wrong{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t) {
        pool.emplace_back([&, t] {
            for (int i = 0; i < 400; ++i) {
                Ddg copy(std::as_const(g));
                if ((i + t) % 4 == 0) {
                    copy.node(0).liveOut = true;
                    copy.addEdge(0, 1 + i % 63, EdgeKind::RegFlow, 1);
                }
                if (copy.numNodes() != 64 ||
                    std::as_const(copy).node(63).cls != OpClass::IntAlu)
                    wrong.fetch_add(1);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(imageOf(g), image);

    // Every copy dropped its references: g owns its storage alone
    // again, so a write lands in place.
    const DdgNode *before = &std::as_const(g).node(0);
    g.node(0).liveOut = true;
    EXPECT_EQ(&std::as_const(g).node(0), before);
}

} // namespace
} // namespace cvliw
