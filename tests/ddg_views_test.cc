/**
 * @file
 * Tests for the zero-allocation DDG traversal views: tombstone
 * skipping after removals, iterator stability under const access,
 * the generation counter contract, and a regression check that
 * compile() results on the paper's worked example are unchanged by
 * the view migration. The DdgArena section covers the adjacency
 * blocks: the growth rule, stale views, a hub of 65,536 edges each
 * way, compact(), and the round trip through DdgRecords (freeze()
 * against the records a graph was converted from, or a graph's
 * records as they stand, and the conversion back, which materializes
 * the records and rebuilds the blocks). The DdgSlots section covers
 * `DdgRecords::fromSlots`: each of its structural rules rejects a bad
 * row with its message, also in a graph's records, it builds no
 * adjacency, and a graph rebuilt from its own slot arrays is
 * field-identical to it. The DdgStorage
 * section covers who owns what: a graph copy is independent of its
 * source, even through a reference taken before the copy; freezing
 * allocates the delta block alone; and threads that convert one
 * loop's records and freeze copies against them are race-free (the
 * TSan job runs this binary).
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
// The allocation tests flip g_count_news on around a load, a
// conversion, a copy or a freeze and read how many heap allocations it
// made. Replacement operators must live at global scope; outside the
// counting window they are plain malloc/free pass-throughs.
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
 * node's raw spans - as one string, for bit-identity checks.
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

    // Field writes through node() do not advance the stamp. Records
    // keep their graph's stamp until an explicit bump.
    const auto g4 = g.generation();
    g.node(a).liveOut = true;
    EXPECT_EQ(g4, g.generation());
    DdgRecords rec = g;
    EXPECT_EQ(rec.generation(), g4);
    rec.bumpGeneration();
    EXPECT_NE(rec.generation(), g4);
    EXPECT_EQ(g.generation(), g4);
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
 * random points and mutated on while the copies live; each copy must
 * keep its exact bytes.
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
            // Keep a copy of the current graph; the oldest one is
            // dropped now and then.
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
 * Freeze a copy of @p g, the graph @p records hold the records of,
 * mutated on through the structural mutators (not compacted), against
 * @p records, and check the frozen records' conversion against @p g:
 * the same node slots and records, @p g's records in the base's edge
 * slots, @p g's later live edges appended densely in order, and every
 * view equal to @p g's once the appended edge ids are mapped back. The
 * frozen records own exactly their appended records and tombstone
 * words.
 * @return the frozen records
 */
DdgRecords
expectFreezeMatchesLiveGraph(const DdgRecords &records, const Ddg &g)
{
    const Ddg base(records);
    Ddg doomed = g;
    DdgRecords rec = std::move(doomed).freeze(records);
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
 * Freeze fuzz: each round builds a random graph (tombstones
 * included), takes its records as the base, and mutates the graph on
 * with random addNode (copies included) / addEdge / addReplica /
 * removeNode / removeEdge interleavings, never compacting it, as
 * compile() mutates its work graph. At random points a copy is frozen
 * against the base records and its conversion checked against the
 * live graph (expectFreezeMatchesLiveGraph), and the graph's records
 * as they stand (`DdgRecords(const Ddg &)`) convert back to a graph
 * equal to it, spans and views included. Records kept along the way
 * must keep their bytes while the graph they came from mutates on,
 * and the base is never written.
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
        const DdgRecords base = g;
        const std::string base_image = imageOf(base);

        // An unchanged conversion is its base's records and nothing
        // more.
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
    const DdgRecords base = s.g;

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
    const DdgRecords base = s.g;

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
    for (NodeId n : s.g.nodes())
        fewer.addNode(s.g.node(n).cls);
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
 * Records with a delta of their own (a result compiled again) are a
 * base by their two blocks: freezing a conversion of them diffs
 * against those blocks, so the delta's records come back appended and
 * its tombstones as bits, and the new records convert to the graph.
 */
TEST(DdgArena, FreezeAgainstRecordsWithADeltaDiffsTheirBlocks)
{
    SmallGraph s;
    const DdgRecords base = s.g;
    Ddg g = base;
    const NodeId r = g.addReplica(s.b);
    g.addEdge(s.a, r, EdgeKind::RegFlow, 0);
    g.removeEdge(s.ca);
    const DdgRecords once = std::move(g).freeze(base);
    EXPECT_EQ(once.ownedBytes(), 8u + 16u + 8u);

    Ddg h = once;
    h.addEdge(r, s.c, EdgeKind::RegFlow, 1);
    Ddg doomed = h;
    const DdgRecords twice = std::move(doomed).freeze(once);
    // The replica, both of its edges and ca's tombstone bit.
    EXPECT_EQ(twice.ownedBytes(), 8u + 2 * 16u + 8u);
    EXPECT_EQ(twice.generation(), h.generation());
    ASSERT_NO_FATAL_FAILURE(expectSameGraph(Ddg(twice), h));
}

/**
 * A block grows in place while the arena entry just past it is
 * `invalidEdge` (for an in-edge, only while its out-list is empty)
 * and relocates otherwise. Three hubs' in- and out-lists and their
 * sinks' in-lists grow in turn, so relocated regions abut, and every
 * in-edge to a hub moves the hub's whole block. compact() at round 20
 * leaves every block without slack. A copy taken midway keeps its own
 * lists. Every list must match the vector model after every append,
 * and the copy its own model.
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
 * A block's span lengths are 32-bit: a hub with 65,536 edge slots each
 * way, one past what 16-bit lengths held, grows through addEdge,
 * converts from its records with every slot in place, and keeps
 * growing both lists after the conversion. Every view lists every
 * edge, in id order.
 */
TEST(DdgArena, HubOf65536EdgesEachWayConvertsAndGrows)
{
    constexpr int each_way = 65536;
    Ddg g;
    const NodeId src = g.addNode(OpClass::IntAlu);
    const NodeId hub = g.addNode(OpClass::IntAlu);
    const NodeId dst = g.addNode(OpClass::Store);
    std::vector<EdgeId> in_ids, out_ids;
    for (int i = 0; i < each_way; ++i)
        in_ids.push_back(g.addEdge(src, hub, EdgeKind::RegFlow, i % 3));
    for (int i = 0; i < each_way; ++i)
        out_ids.push_back(g.addEdge(hub, dst, EdgeKind::RegFlow, 0));
    EXPECT_EQ(g.inEdges(hub).toVector(), in_ids);
    EXPECT_EQ(g.outEdges(hub).toVector(), out_ids);

    Ddg built = Slots(g).build();
    EXPECT_EQ(idsOf(built.inEdgesRaw(hub)), in_ids);
    EXPECT_EQ(idsOf(built.outEdgesRaw(hub)), out_ids);

    // An in-edge moves the hub's block, which has out-edges; the
    // out-edge then lands in the moved block's slack.
    in_ids.push_back(built.addEdge(src, hub, EdgeKind::RegFlow, 1));
    out_ids.push_back(built.addEdge(hub, dst, EdgeKind::RegFlow, 2));
    EXPECT_EQ(built.inEdgesRaw(hub).size(), 65537u);
    EXPECT_EQ(built.inEdges(hub).toVector(), in_ids);
    EXPECT_EQ(built.outEdges(hub).toVector(), out_ids);
    EXPECT_EQ(built.flowPreds(hub).toVector(),
              std::vector<NodeId>(in_ids.size(), src));
    EXPECT_EQ(built.flowSuccs(hub).toVector(),
              std::vector<NodeId>(out_ids.size(), dst));
    EXPECT_EQ(built.numEdges(), 2 * each_way + 2);
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

/**
 * A graph's records are checked against the same rules, so a field
 * written through edge() past the node array fails with its rule and
 * row before a conversion could index past a block, and so does a
 * compile of the graph.
 */
TEST(DdgSlots, RecordsOfAGraphCheckTheSlotRules)
{
    SmallGraph s;
    s.g.edge(s.bc).dst = 7;
    try {
        const DdgRecords rec(s.g);
        ADD_FAILURE() << "accepted";
    } catch (const DdgSlotError &err) {
        EXPECT_EQ(std::string(err.what()),
                  "edge record row 1: endpoint outside the node array");
    }
    EXPECT_THROW(compile(s.g, MachineConfig::unified()), DdgSlotError);
}

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
 * Records from fromSlots are their two exactly-sized record blocks
 * and no adjacency: a load allocates those two blocks alone, and they
 * own nothing beyond them. A conversion copies them into the graph's
 * node and edge arrays and builds the arena and the block array: four
 * allocations.
 */
TEST(DdgSlots, FromSlotsBuildsNoAdjacency)
{
    const Slots slots(everyFieldDdg());
    (void)Ddg(slots.build()); // grows the per-thread fill cursors
    std::optional<DdgRecords> rec;
    EXPECT_EQ(allocsDuring([&] { rec.emplace(slots.build()); }), 2u);
    EXPECT_EQ(rec->ownedBytes(), 0u);
    EXPECT_EQ(rec->numNodeSlots(), 18);
    std::optional<Ddg> g;
    EXPECT_EQ(allocsDuring([&] { g.emplace(*rec); }), 4u);
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

// --- Storage: graphs own, records share. -------------------------------

/**
 * A copy owns its four arrays: four flat allocations at any graph
 * size, none per node.
 */
TEST(DdgStorage, CopyAllocatesItsFourArraysAtAnySize)
{
    for (const int n : {16, 128}) {
        const Ddg g = chain(n);
        std::optional<Ddg> copy;
        EXPECT_EQ(allocsDuring([&] { copy.emplace(g); }), 4u)
            << n << "-node copy";
        EXPECT_EQ(imageOf(*copy), imageOf(g));
    }
}

/**
 * A copy is independent of its source both ways, even through a
 * reference from node() or edge() taken before the copy: no write to
 * one graph, by a reference or a mutator, reaches the other.
 */
TEST(DdgStorage, CopyIsIndependentEvenThroughAnEarlierReference)
{
    Ddg a = chain(24);
    DdgNode &node3 = a.node(3);
    DdgEdge &edge2 = a.edge(2);
    const Ddg b = a;
    const std::string image = imageOf(b);

    node3.liveOut = true;
    edge2.distance = 5;
    EXPECT_TRUE(a.node(3).liveOut);
    EXPECT_EQ(a.edge(2).distance, 5);
    a.addEdge(0, 5, EdgeKind::RegFlow, 1);
    a.removeNode(7);
    a.addReplica(2);
    a.compact();
    EXPECT_EQ(imageOf(b), image);

    Ddg c = b;
    c.node(4).isSpill = true;
    c.addNode(OpClass::Store);
    c.removeEdge(0);
    EXPECT_EQ(imageOf(b), image);
    EXPECT_NE(imageOf(c), image);
}

/**
 * Freezing shares the records' blocks and allocates only what the
 * graph added: nothing for a graph that still holds the records, and
 * exactly one block, the delta, for a changed one.
 */
TEST(DdgStorage, FreezeAllocatesTheDeltaAlone)
{
    const DdgRecords rec = Slots(chain(32)).build();
    std::optional<DdgRecords> frozen;

    Ddg same(rec);
    EXPECT_EQ(
        allocsDuring([&] { frozen.emplace(std::move(same).freeze(rec)); }),
        0u);
    EXPECT_EQ(frozen->ownedBytes(), 0u);
    EXPECT_EQ(frozen->generation(), rec.generation());

    // A replica, a live appended edge, and node 7 removed with its two
    // edges: 8 + 16 bytes of records and one word of tombstone bits
    // for the 32 + 31 base slots.
    Ddg changed(rec);
    changed.addReplica(2);
    changed.addEdge(0, 5, EdgeKind::RegFlow, 1);
    changed.removeNode(7);
    EXPECT_EQ(allocsDuring([&] {
                  frozen.emplace(std::move(changed).freeze(rec));
              }),
              1u);
    EXPECT_EQ(frozen->ownedBytes(), 32u);
    EXPECT_EQ(frozen->numNodes(), 32);
    EXPECT_EQ(frozen->numEdges(), 30);
}

/**
 * The pool's workers convert one client loop's records and freeze
 * their results against them at once: eight threads convert one
 * records value, change some copies, freeze each against the records
 * and keep some of the results past the next freeze. Every result
 * converts back to what was frozen, and the records keep their bytes.
 */
TEST(DdgStorage, ThreadsConvertOneLoopsRecordsAndFreezeAgainstThem)
{
    const DdgRecords rec = Slots(chain(64)).build();
    const std::string image = imageOf(rec);
    std::atomic<int> wrong{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t) {
        pool.emplace_back([&, t] {
            std::vector<DdgRecords> kept;
            for (int i = 0; i < 200; ++i) {
                const Ddg g(rec);
                Ddg copy = g;
                const bool change = (i + t) % 3 == 0;
                if (change) {
                    copy.addEdge(0, 1 + i % 63, EdgeKind::RegFlow, 1);
                    copy.removeEdge(i % 63);
                }
                const DdgRecords out = std::move(copy).freeze(rec);
                const Ddg back(out);
                if (back.numNodes() != 64 || back.numEdges() != 63 ||
                    (out.ownedBytes() != 0) != change ||
                    back.edge(i % 63).alive == change)
                    wrong.fetch_add(1);
                if (i % 8 == 0)
                    kept.push_back(out);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(imageOf(rec), image);
}

} // namespace
} // namespace cvliw
