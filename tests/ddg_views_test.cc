/**
 * @file
 * Tests for the zero-allocation DDG traversal views: tombstone
 * skipping after removals, iterator stability under const access,
 * the generation counter contract, the AnalysisCache memo, and a
 * regression check that compile() results on the paper's worked
 * example are unchanged by the view migration. The DdgLabels section
 * covers the label-interning arena: replica suffix synthesis,
 * allocation-free graph copies, compact() dropping dead-node label
 * bytes, and alias safety of label views passed back into the graph.
 * The DdgSlots section covers `Ddg::fromSlots`: each of its eight
 * structural rules rejects a bad row, and a graph rebuilt from its
 * own slot arrays and label arena is field-identical to it. The
 * DdgShared section covers copy-on-write storage: copies share, a
 * first write clones, views follow the clone, and concurrent copies
 * of one graph are race-free (the TSan job runs this binary).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
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
#include "paper_graph.hh"

// --- Global operator-new hook (this binary only). --------------------
// The DdgLabels allocation tests flip g_count_news on around a graph
// copy or write and read how many heap allocations it made. Replacement
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
        a = g.addNode(OpClass::Load, "a");
        b = g.addNode(OpClass::IntAlu, "b");
        c = g.addNode(OpClass::FpAlu, "c");
        ab = g.addEdge(a, b, EdgeKind::RegFlow, 0);
        bc = g.addEdge(b, c, EdgeKind::RegFlow, 0);
        ca = g.addEdge(c, a, EdgeKind::RegFlow, 1);
        ac_mem = g.addEdge(a, c, EdgeKind::Memory, 0, 2);
    }
};

/**
 * Every byte a graph's storage holds - node and edge records, each
 * node's raw spans, the label arena - as one string, for bit-identity
 * checks. Reads through const accessors only, which never clone.
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
    img.append(g.labelArena());
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
    const NodeId a = g.addNode(OpClass::Load, "a");
    const auto g1 = g.generation();
    EXPECT_NE(g0, g1);
    const NodeId b = g.addNode(OpClass::IntAlu, "b");
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
    // what lets a single-slot cache key on the stamp alone.
    SmallGraph s;
    Ddg copy = s.g;
    EXPECT_EQ(copy.generation(), s.g.generation());

    s.g.addNode(OpClass::IntAlu, "x");
    copy.addNode(OpClass::IntAlu, "y");
    EXPECT_NE(copy.generation(), s.g.generation());
}

TEST(DdgViews, AnalysisCacheTracksMutations)
{
    SmallGraph s;
    const auto m = MachineConfig::unified();
    AnalysisCache cache;

    EXPECT_EQ(cache.get(s.g, m).order, topoOrder(s.g));
    // Cached record stays put while the graph is unchanged.
    const LoopAnalysis *first = &cache.get(s.g, m);
    EXPECT_EQ(first, &cache.get(s.g, m));
    EXPECT_EQ(cache.runs(), 1u);
    EXPECT_EQ(cache.get(s.g, m).times.asap,
              analyzeLoop(s.g, m).times.asap);
    EXPECT_EQ(cache.get(s.g, m).scc, analyzeLoop(s.g, m).scc);
    EXPECT_EQ(cache.runs(), 1u);

    // Mutate: the memo must recompute.
    const NodeId d = s.g.addNode(OpClass::IntAlu, "d");
    s.g.addEdge(s.c, d, EdgeKind::RegFlow, 0);
    EXPECT_EQ(cache.get(s.g, m).order, topoOrder(s.g));
    EXPECT_EQ(cache.get(s.g, m).times.length,
              analyzeLoop(s.g, m).times.length);
    EXPECT_EQ(cache.get(s.g, m).scc, analyzeLoop(s.g, m).scc);
    EXPECT_EQ(cache.runs(), 2u);
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
    const NodeId a = g.addNode(OpClass::IntAlu, "a");
    std::vector<NodeId> sinks;
    for (int i = 0; i < 12; ++i)
        sinks.push_back(g.addNode(OpClass::Store, "s" + std::to_string(i)));
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
    const NodeId d = s.g.addNode(OpClass::IntAlu, "d");
    const NodeId r = s.g.addReplica(s.b, ".r");
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
 * Mutation fuzz: random interleavings of addNode / addEdge /
 * addReplica / removeNode / removeEdge / removeDeadCode against the
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

        for (int step = 0; step < 300; ++step) {
            const std::size_t op =
                rng.weightedIndex({3, 6, 2, 1, 1, 0.5});
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
                const NodeId r = g.addReplica(orig, ".r");
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
                std::vector<NodeId> removed;
                removeDeadCode(g, part, index, nullptr, &removed);
                for (NodeId n : removed) {
                    live_nodes.erase(std::remove(live_nodes.begin(),
                                                 live_nodes.end(), n),
                                     live_nodes.end());
                }
                // A sweep may drain everything when no store/live-out
                // root survived; keep the op mix meaningful.
                while (live_nodes.size() < 2)
                    spawn(OpClass::IntAlu);
            }
            // Compaction at random quiescent points (no view is held
            // here): everything the oracle observes must be unmoved.
            if (rng.chance(0.05))
                g.compact();
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
        g.compact();
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
 * A span grows in place while the arena entry just past it is
 * `invalidEdge` and relocates otherwise. Three hubs' in- and
 * out-spans and their sinks' in-spans grow in turn, so relocated
 * regions abut. Each hub span relocates at lengths 0, 4, 8 and 16,
 * then at 21 and 42 after compact() leaves it without slack. A copy
 * taken midway shares the arena until the next append clones it.
 * Every list must match the vector model after every append, and
 * the copy its own model.
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

/** A graph's slot arrays and label arena, copied out for fromSlots. */
struct Slots
{
    std::vector<DdgNode> nodes;
    std::vector<DdgEdge> edges;
    std::string labels;

    explicit Slots(const Ddg &g) : labels(g.labelArena())
    {
        for (NodeId n = 0; n < g.numNodeSlots(); ++n)
            nodes.push_back(g.node(n));
        for (EdgeId e = 0; e < g.numEdgeSlots(); ++e)
            edges.push_back(g.edge(e));
    }

    Ddg build() const
    {
        return Ddg::fromSlots(
            nodes.data(), static_cast<std::uint32_t>(nodes.size()),
            edges.data(), static_cast<std::uint32_t>(edges.size()),
            labels);
    }
};

/** A graph rebuilt by fromSlots must carry exactly-sized spans that
 *  still grow correctly when mutated afterwards. */
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
    const NodeId d = loaded.addNode(OpClass::Store, "d");
    const EdgeId ad = loaded.addEdge(s.a, d, EdgeKind::RegFlow, 0);
    std::vector<EdgeId> out_a = loaded.outEdges(s.a).toVector();
    EXPECT_EQ(out_a.back(), ad);
    EXPECT_EQ(out_a.size(), s.g.outEdges(s.a).size() + 1);
}

/**
 * compact() repacks a relocation-grown arena to fromSlots density:
 * adjacency (order, tombstones, dead-slot spans) is preserved exactly,
 * the generation stamp does not advance, and the graph keeps growing
 * correctly afterwards from zero slack.
 */
TEST(DdgArena, CompactPreservesAdjacencyAndGeneration)
{
    // Heavy fan-out on one node forces repeated span relocations, so
    // the arena accumulates dead regions and slack.
    Ddg g;
    const NodeId hub = g.addNode(OpClass::IntAlu, "hub");
    std::vector<NodeId> leaves;
    for (int i = 0; i < 37; ++i) {
        const NodeId leaf = g.addNode(OpClass::IntAlu);
        g.addEdge(hub, leaf, EdgeKind::RegFlow, 0);
        leaves.push_back(leaf);
    }
    g.removeNode(leaves[3]); // tombstones stay in the spans
    g.removeEdge(g.outEdgesRaw(hub)[7]);

    // Oracle: an unmodified copy (same adjacency, untouched arena).
    const Ddg pre = g;
    const std::uint64_t stamp = g.generation();

    g.compact();

    EXPECT_EQ(g.generation(), stamp) << "compact is not structural";
    ASSERT_EQ(g.numNodeSlots(), pre.numNodeSlots());
    for (NodeId n = 0; n < g.numNodeSlots(); ++n) {
        const EdgeSpan gi = g.inEdgesRaw(n), pi = pre.inEdgesRaw(n);
        EXPECT_EQ(std::vector<EdgeId>(gi.begin(), gi.end()),
                  std::vector<EdgeId>(pi.begin(), pi.end()))
            << "in-span of node " << n;
        const EdgeSpan go = g.outEdgesRaw(n), po = pre.outEdgesRaw(n);
        EXPECT_EQ(std::vector<EdgeId>(go.begin(), go.end()),
                  std::vector<EdgeId>(po.begin(), po.end()))
            << "out-span of node " << n;
        if (!g.node(n).alive)
            continue;
        EXPECT_EQ(g.inEdges(n).toVector(), pre.inEdges(n).toVector());
        EXPECT_EQ(g.outEdges(n).toVector(),
                  pre.outEdges(n).toVector());
    }

    // Compact twice: the second call is the documented no-op.
    g.compact();
    EXPECT_EQ(g.generation(), stamp);

    // Growth from a span without slack relocates cleanly again.
    const NodeId extra = g.addNode(OpClass::IntAlu, "extra");
    const EdgeId e = g.addEdge(hub, extra, EdgeKind::RegFlow, 0);
    EXPECT_EQ(g.outEdges(hub).toVector().back(), e);
}

// --- Label interning. -------------------------------------------------

TEST(DdgLabels, AddReplicaSynthesizesSuffixIntoArena)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::FpMul, "mul");
    const NodeId r1 = g.addReplica(a, ".r1");
    EXPECT_EQ(g.label(r1), "mul.r1");
    EXPECT_TRUE(g.node(r1).isReplica);
    EXPECT_EQ(g.node(r1).semanticId, a);

    // Replica of a replica: the full synthesized label is the prefix,
    // and the semantic id stays pinned to the original.
    const NodeId r2 = g.addReplica(r1, ".r2");
    EXPECT_EQ(g.label(r2), "mul.r1.r2");
    EXPECT_EQ(g.node(r2).semanticId, a);

    // Default labels synthesize as "n<id>".
    const NodeId d = g.addNode(OpClass::Load);
    EXPECT_EQ(g.label(d), "n" + std::to_string(d));
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

/** A chain of @p n nodes with long labels (defeats SSO) and edges. */
Ddg
labeledChain(int n)
{
    Ddg g;
    NodeId prev = g.addNode(OpClass::Load, "head_0_long_label_bytes");
    for (int i = 1; i < n; ++i) {
        const NodeId next = g.addNode(
            OpClass::IntAlu,
            "chain_" + std::to_string(i) + "_long_label_bytes");
        g.addEdge(prev, next, EdgeKind::RegFlow, 0);
        prev = next;
    }
    return g;
}

TEST(DdgLabels, GraphCopyDoesNoPerNodeAllocation)
{
    // A copy shares all five arrays, so it allocates nothing at any
    // size. Its first write clones only the arrays it writes, each as
    // one flat buffer copy: labels live in one arena, so the count
    // never scales with the node count as per-node strings would.
    std::size_t first_write[2] = {};
    const int sizes[2] = {16, 128};
    for (int k = 0; k < 2; ++k) {
        const Ddg g = labeledChain(sizes[k]);
        std::optional<Ddg> copy;
        EXPECT_EQ(allocsDuring([&] { copy.emplace(g); }), 0u)
            << sizes[k] << "-node copy allocated";
        EXPECT_EQ(copy->numNodes(), g.numNodes());
        EXPECT_EQ(copy->labelArena(), g.labelArena());
        first_write[k] = allocsDuring(
            [&] { copy->addNode(OpClass::IntAlu, "tail"); });
    }
    EXPECT_EQ(first_write[0], first_write[1])
        << "first-write allocations scale with graph size";
    // addNode writes the node, slot and label arrays: one clone each.
    EXPECT_GE(first_write[1], 1u) << "counting hook is not engaged";
    EXPECT_LE(first_write[1], 3u);
}

TEST(DdgLabels, CompactDropsDeadNodeLabelBytes)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::Load, "alpha_long_label_x");
    const NodeId b = g.addNode(OpClass::IntAlu, "beta_long_label_yy");
    const NodeId c = g.addNode(OpClass::Store, "gamma_long_label_z");
    g.addEdge(a, c, EdgeKind::RegFlow, 0);

    const std::size_t before = g.labelArena().size();
    g.removeNode(b);
    // Removal alone keeps the bytes (tombstoned slots still resolve).
    EXPECT_EQ(g.labelArena().size(), before);
    EXPECT_EQ(g.label(b), "beta_long_label_yy");

    g.compact();
    EXPECT_EQ(g.labelArena().size(),
              std::string("alpha_long_label_x").size() +
                  std::string("gamma_long_label_z").size());
    EXPECT_EQ(g.label(a), "alpha_long_label_x");
    EXPECT_EQ(g.label(c), "gamma_long_label_z");
    EXPECT_EQ(g.label(b).size(), 0u) << "dead label survived compact";

    // Idempotent: a second compact changes nothing.
    g.compact();
    EXPECT_EQ(g.label(a), "alpha_long_label_x");
    EXPECT_EQ(g.label(c), "gamma_long_label_z");
}

TEST(DdgLabels, InterningIsAliasSafeAcrossArenaRealloc)
{
    // Views into the arena passed straight back into the graph
    // (addNode labels, addReplica suffixes) must survive the arena
    // reallocating mid-call. The oracle strings catch stale-pointer
    // copies; under ASan a dangling read is a hard failure.
    Ddg g;
    std::vector<NodeId> ids;
    std::vector<std::string> oracle;
    ids.push_back(g.addNode(OpClass::IntAlu, "seed_label_0123456789"));
    oracle.push_back("seed_label_0123456789");

    for (int i = 0; i < 48; ++i) {
        const NodeId prev = ids.back();
        const std::string &prev_label = oracle.back();
        NodeId n = -1;
        std::string expect;
        switch (i % 3) {
        case 0:
            // Self-alias: the label is a view into the arena that
            // addNode itself appends to.
            n = g.addNode(OpClass::Load, g.label(prev));
            expect = prev_label;
            break;
        case 1:
            // Suffix aliases the arena AND the first intern inside
            // addReplica may reallocate it before the suffix is read.
            n = g.addReplica(prev, g.label(ids.front()));
            expect = prev_label + oracle.front();
            break;
        default:
            // Growing owned suffix keeps forcing reallocations.
            n = g.addReplica(
                prev, "." + std::string(static_cast<std::size_t>(i),
                                        'x'));
            expect = prev_label + "." +
                     std::string(static_cast<std::size_t>(i), 'x');
            break;
        }
        ids.push_back(n);
        oracle.push_back(expect);
    }

    ASSERT_EQ(ids.size(), oracle.size());
    for (std::size_t k = 0; k < ids.size(); ++k)
        EXPECT_EQ(g.label(ids[k]), oracle[k]) << "node " << ids[k];
}

// --- Bulk construction (fromSlots). ----------------------------------

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
        EXPECT_EQ(x.labelLen, y.labelLen) << "node " << n;
        EXPECT_EQ(a.label(n), b.label(n)) << "node " << n;
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
    const NodeId ld = g.addNode(OpClass::Load, "ld");
    const NodeId st = g.addNode(OpClass::Store, "st");
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
        const NodeId a = g.addNode(OpClass::Load, "a");
        const NodeId b = g.addNode(OpClass::IntAlu, "b");
        const NodeId c = g.addNode(OpClass::FpMul, "c");
        const NodeId d = g.addNode(OpClass::Store, "d");
        const NodeId r = g.addReplica(b, ".r1");
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
    const NodeId hub = fan_out.addNode(OpClass::IntAlu, "hub");
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
    const char *label_rule = "label slice outside the label arena";
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
        {"label slice one byte past the arena",
         [](Slots &s) {
             s.nodes[9].labelOffset =
                 static_cast<std::uint32_t>(s.labels.size());
             s.nodes[9].labelLen = 1;
         },
         in_node9, label_rule},
        {"label slice that wraps 32 bits",
         [](Slots &s) {
             s.nodes[9].labelOffset = UINT32_MAX;
             s.nodes[9].labelLen = 2;
         },
         in_node9, label_rule},
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
            const std::string what = err.what();
            EXPECT_NE(what.find(c.row), std::string::npos) << what;
            EXPECT_NE(what.find(c.rule), std::string::npos) << what;
        }
    }
}

// --- Copy-on-write storage. -------------------------------------------

TEST(DdgShared, CopySharesStorage)
{
    const Ddg g = labeledChain(32);
    const Ddg copy(g);
    EXPECT_EQ(copy.labelArena().data(), g.labelArena().data());
    EXPECT_EQ(copy.inEdgesRaw(1).begin(), g.inEdgesRaw(1).begin());
    EXPECT_EQ(&copy.node(0), &g.node(0));
    EXPECT_EQ(&copy.edge(0), &g.edge(0));
    EXPECT_EQ(copy.generation(), g.generation());
}

TEST(DdgShared, FirstWriteClonesAndLeavesTheOtherSharerBitIdentical)
{
    Ddg a = labeledChain(24);
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
    b.addReplica(2, ".r");
    b.compact();
    EXPECT_EQ(imageOf(a), image);
    EXPECT_NE(imageOf(b), image);

    // Writes to the original: the copy keeps the old bytes.
    const Ddg c(a);
    a.addNode(OpClass::Store, "tail");
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
    EXPECT_EQ(d.labelArena().data(), c.labelArena().data());
}

TEST(DdgShared, ViewsFollowTheCloneAndOutliveTheOtherSharer)
{
    // Under ASan a view left pointing into the pre-clone storage reads
    // freed memory once the other sharer is gone.
    Ddg g = labeledChain(16);
    auto other = std::make_unique<Ddg>(g);
    const LiveAdjRange out = g.outEdges(2);
    const FlowNeighborRange succs = g.flowSuccs(2);
    const LiveNodeRange nodes = g.nodes();
    const LiveEdgeRange edges = g.edges();
    const std::vector<EdgeId> out_before = out.toVector();

    g.node(9).liveOut = true;
    const NodeId x = g.addNode(OpClass::Store, "x");
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
    Ddg g = labeledChain(64);
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
                    copy.label(63) != std::as_const(g).label(63))
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
