/**
 * @file
 * Tests for the incremental refinement engine:
 *  - the delta move evaluation (PseudoScratch::probeMove) and the
 *    incremental communication count stay bit-identical to the
 *    from-scratch pseudoSchedule / findCommunications oracles over
 *    random move sequences on generated loops,
 *  - CommInfo::update patches exactly to what a full rescan computes.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "ddg/analysis.hh"
#include "ddg/builder.hh"
#include "partition/partition.hh"
#include "sched/comms.hh"
#include "sched/mii.hh"
#include "sched/pseudo.hh"
#include "vliw/reference.hh"
#include "workloads/generator.hh"
#include "workloads/profiles.hh"

namespace cvliw
{
namespace
{

void
expectSameResult(const PseudoResult &a, const PseudoResult &b,
                 const char *what)
{
    EXPECT_EQ(a.iiPart, b.iiPart) << what;
    EXPECT_EQ(a.overflow, b.overflow) << what;
    EXPECT_EQ(a.regOverflow, b.regOverflow) << what;
    EXPECT_EQ(a.length, b.length) << what;
    EXPECT_EQ(a.comms, b.comms) << what;
    EXPECT_EQ(a.imbalance, b.imbalance) << what;
}

void
expectSameComms(const CommInfo &a, const CommInfo &b, const char *what)
{
    EXPECT_EQ(a.producers, b.producers) << what;
    EXPECT_EQ(a.communicated, b.communicated) << what;
}

TEST(Incremental, DeltaPseudoMatchesOracleOnRandomMoves)
{
    const auto &profiles = specFp95Profiles();
    Rng rng(2026);
    for (std::size_t pi = 0; pi < profiles.size(); pi += 3) {
        const Loop loop = generateLoop(profiles[pi], rng, 0);
        // bind() keeps the graph, so it binds a named Ddg, not the
        // loop's records (bind refuses those; see BindAccepts below).
        const Ddg ddg(loop.ddg);
        const auto nodes = ddg.nodes().toVector();
        for (const char *cfg : {"2c1b2l64r", "4c2b4l64r"}) {
            const auto m = MachineConfig::fromString(cfg);
            const int ii = minimumIi(ddg, m);

            std::vector<ClusterId> assign(ddg.numNodeSlots(), 0);
            for (NodeId n : nodes) {
                assign[n] = static_cast<int>(
                    rng.uniformInt(0, m.numClusters() - 1));
            }

            const LoopAnalysis analysis = analyzeLoop(ddg, m);
            PseudoScratch inc, oracle;
            PseudoResult best =
                inc.bind(ddg, m, analysis, assign, ii);
            expectSameResult(best,
                             pseudoSchedule(ddg, m, analysis,
                                            assign, ii, oracle),
                             loop.name().c_str());

            for (int step = 0; step < 80; ++step) {
                const NodeId n = nodes[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<int>(nodes.size()) -
                                          1))];
                if (ddg.node(n).cls == OpClass::Copy)
                    continue;
                const int c = static_cast<int>(
                    rng.uniformInt(0, m.numClusters() - 1));
                if (c == inc.assignment()[n])
                    continue;

                std::vector<ClusterId> moved = inc.assignment();
                moved[n] = c;
                const PseudoResult full = pseudoSchedule(
                    ddg, m, analysis, moved, ii, oracle);

                PseudoResult out;
                const bool accepted = inc.probeMove(n, c, best, out);
                ASSERT_EQ(accepted, full.better(best))
                    << loop.name() << " step " << step;
                if (accepted) {
                    expectSameResult(out, full, loop.name().c_str());
                    best = out;
                    inc.commitMove(n, c);
                } else if (step % 5 == 0) {
                    // Also walk through non-improving states so the
                    // sequence is not a pure hill-climb.
                    inc.commitMove(n, c);
                    best = full;
                }

                ASSERT_EQ(
                    inc.commCount(),
                    findCommunications(ddg, inc.assignment())
                        .count())
                    << loop.name() << " step " << step;
            }
        }
    }
}

TEST(Incremental, CommInfoUpdateMatchesRescanOnRandomMoves)
{
    const auto &profiles = specFp95Profiles();
    Rng rng(77);
    for (std::size_t pi = 0; pi < profiles.size(); pi += 4) {
        const Loop loop = generateLoop(profiles[pi], rng, 1);
        const Ddg ddg(loop.ddg);
        const auto nodes = ddg.nodes().toVector();
        const auto m = MachineConfig::fromString("4c2b2l64r");

        std::vector<ClusterId> assign(ddg.numNodeSlots(), 0);
        for (NodeId n : nodes) {
            assign[n] = static_cast<int>(
                rng.uniformInt(0, m.numClusters() - 1));
        }
        CommInfo inc = findCommunications(ddg, assign);

        for (int step = 0; step < 120; ++step) {
            const NodeId n = nodes[static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<int>(nodes.size()) - 1))];
            assign[n] = static_cast<int>(
                rng.uniformInt(0, m.numClusters() - 1));

            // Moving n changes its own targets and its producers'.
            std::vector<NodeId> touched{n};
            for (NodeId p : ddg.flowPreds(n))
                touched.push_back(p);
            inc.update(ddg, assign, touched);

            expectSameComms(inc,
                            findCommunications(ddg, assign),
                            loop.name().c_str());
        }
    }
}

TEST(Incremental, CommInfoUpdateHandlesGraphEdits)
{
    // Edit the graph the way the replicator does: add a replica,
    // rewire a consumer, remove a dead node.
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("x", OpClass::IntAlu, {"a"});
    b.op("s", OpClass::Store, {"x"});
    Ddg g = b.take();
    const NodeId a = 0, x = 1, s = 2;

    std::vector<ClusterId> assign{0, 1, 1};
    CommInfo inc = findCommunications(g, assign);
    EXPECT_EQ(inc.count(), 1); // a -> x crosses clusters

    // Replicate a into cluster 1 and rewire x to it.
    const NodeId r = g.addReplica(a);
    assign.resize(g.numNodeSlots(), -1);
    assign[r] = 1;
    for (EdgeId eid : g.inEdges(x).toVector()) {
        if (g.edge(eid).src == a)
            g.removeEdge(eid);
    }
    g.addEdge(r, x, EdgeKind::RegFlow);
    inc.update(g, assign, {a, r, x});
    expectSameComms(inc, findCommunications(g, assign), "rewired");
    EXPECT_EQ(inc.count(), 0);

    // Now a is dead: remove it.
    g.removeNode(a);
    inc.update(g, assign, {a});
    expectSameComms(inc, findCommunications(g, assign), "removed");
    (void)s;
}

/**
 * Does `PseudoScratch::bind` accept a @p Graph? Records would convert
 * to a temporary Ddg that the scratch's graph pointer outlives.
 */
template <typename Graph, typename = void>
struct BindAccepts : std::false_type
{
};

template <typename Graph>
struct BindAccepts<Graph,
                   std::void_t<decltype(std::declval<PseudoScratch &>().bind(
                       std::declval<const Graph &>(),
                       std::declval<const MachineConfig &>(),
                       std::declval<const LoopAnalysis &>(),
                       std::declval<const std::vector<ClusterId> &>(), 0))>>
    : std::true_type
{
};

// The two src/ classes that keep a graph reference past a call,
// PseudoScratch and ReferenceInterpreter, accept a Ddg and refuse
// records, so neither can keep a converted temporary.
static_assert(BindAccepts<Ddg>::value, "bind takes a Ddg");
static_assert(!BindAccepts<DdgRecords>::value, "bind refuses records");
static_assert(std::is_constructible_v<ReferenceInterpreter, const Ddg &,
                                      int>,
              "the reference takes a Ddg");
static_assert(!std::is_constructible_v<ReferenceInterpreter,
                                       const DdgRecords &, int>,
              "the reference refuses records");

} // namespace
} // namespace cvliw
