/**
 * @file
 * Tests for the incremental refinement engine and the config-keyed
 * caches:
 *  - the delta move evaluation (PseudoScratch::probeMove) and the
 *    incremental communication count stay bit-identical to the
 *    from-scratch pseudoSchedule / findCommunications oracles over
 *    random move sequences on generated loops,
 *  - CommInfo::update patches exactly to what a full rescan computes,
 *  - AnalysisCache / SchedulerCache never reuse results across
 *    machine configs (the generation-only-key regression).
 */

#include <gtest/gtest.h>

#include "ddg/builder.hh"
#include "partition/partition.hh"
#include "sched/comms.hh"
#include "sched/mii.hh"
#include "sched/pseudo.hh"
#include "sched/scheduler.hh"
#include "sched/sms_order.hh"
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
    EXPECT_EQ(a.targetClusters, b.targetClusters) << what;
    EXPECT_EQ(a.communicated, b.communicated) << what;
}

TEST(Incremental, DeltaPseudoMatchesOracleOnRandomMoves)
{
    const auto &profiles = specFp95Profiles();
    Rng rng(2026);
    for (std::size_t pi = 0; pi < profiles.size(); pi += 3) {
        const Loop loop = generateLoop(profiles[pi], rng, 0);
        const auto nodes = loop.ddg.nodes().toVector();
        for (const char *cfg : {"2c1b2l64r", "4c2b4l64r"}) {
            const auto m = MachineConfig::fromString(cfg);
            const int ii = minimumIi(loop.ddg, m);

            std::vector<ClusterId> assign(loop.ddg.numNodeSlots(), 0);
            for (NodeId n : nodes) {
                assign[n] = static_cast<int>(
                    rng.uniformInt(0, m.numClusters() - 1));
            }

            PseudoScratch inc, oracle;
            PseudoResult best = inc.bind(loop.ddg, m, assign, ii);
            expectSameResult(
                best, pseudoSchedule(loop.ddg, m, assign, ii, oracle),
                loop.name().c_str());

            for (int step = 0; step < 80; ++step) {
                const NodeId n = nodes[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<int>(nodes.size()) -
                                          1))];
                if (loop.ddg.node(n).cls == OpClass::Copy)
                    continue;
                const int c = static_cast<int>(
                    rng.uniformInt(0, m.numClusters() - 1));
                if (c == inc.assignment()[n])
                    continue;

                std::vector<ClusterId> moved = inc.assignment();
                moved[n] = c;
                const PseudoResult full =
                    pseudoSchedule(loop.ddg, m, moved, ii, oracle);

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
                    findCommunications(loop.ddg, inc.assignment())
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
        const auto nodes = loop.ddg.nodes().toVector();
        const auto m = MachineConfig::fromString("4c2b2l64r");

        std::vector<ClusterId> assign(loop.ddg.numNodeSlots(), 0);
        for (NodeId n : nodes) {
            assign[n] = static_cast<int>(
                rng.uniformInt(0, m.numClusters() - 1));
        }
        CommInfo inc = findCommunications(loop.ddg, assign);

        for (int step = 0; step < 120; ++step) {
            const NodeId n = nodes[static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<int>(nodes.size()) - 1))];
            assign[n] = static_cast<int>(
                rng.uniformInt(0, m.numClusters() - 1));

            // Moving n changes its own targets and its producers'.
            std::vector<NodeId> touched{n};
            for (NodeId p : loop.ddg.flowPreds(n))
                touched.push_back(p);
            inc.update(loop.ddg, assign, touched);

            expectSameComms(inc,
                            findCommunications(loop.ddg, assign),
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

TEST(ConfigKeyedCaches, AnalysisTimesNotReusedAcrossConfigs)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("m", OpClass::FpMul, {"ld"});
    b.op("st", OpClass::Store, {"m"});
    const Ddg g = b.take();

    const auto slow = MachineConfig::fromString("4c2b4l64r");
    auto fast = MachineConfig::fromString("4c2b4l64r");
    fast.setLatency(OpClass::Load, 1);
    fast.setLatency(OpClass::FpMul, 1);

    AnalysisCache cache;
    const NodeTimes t_slow = cache.get(g, slow).times; // copy: the
                                                       // slot is reused
    EXPECT_EQ(t_slow.asap[1], slow.latency(OpClass::Load));

    // Same cache, same graph generation, different machine: the key
    // regression was returning the slow-machine times here.
    const NodeTimes &t_fast = cache.get(g, fast).times;
    EXPECT_EQ(t_fast.asap[1], 1);
    EXPECT_NE(t_fast.asap[2], t_slow.asap[2]);

    // And switching back recomputes again instead of mixing.
    EXPECT_EQ(cache.get(g, slow).times.asap[1],
              slow.latency(OpClass::Load));
    EXPECT_EQ(cache.runs(), 3u);
}

TEST(ConfigKeyedCaches, SchedulerOrderNotReusedAcrossConfigs)
{
    const auto &profiles = specFp95Profiles();
    Rng rng(5);
    const Loop loop = generateLoop(profiles[0], rng, 0);

    const auto a = MachineConfig::fromString("4c2b4l64r");
    auto bcfg = MachineConfig::fromString("4c2b4l64r");
    bcfg.setLatency(OpClass::Load, 9);
    bcfg.setLatency(OpClass::FpAlu, 1);

    SchedulerCache shared;
    const auto order_a = shared.order(loop.ddg, a);
    const auto expect_b = smsOrder(loop.ddg, analyzeLoop(loop.ddg, bcfg));
    EXPECT_EQ(shared.order(loop.ddg, bcfg), expect_b);

    EXPECT_EQ(shared.order(loop.ddg, a),
              smsOrder(loop.ddg, analyzeLoop(loop.ddg, a)));
    (void)order_a;
}

TEST(ConfigKeyedCaches, ConfigIdentityStamps)
{
    const auto a = MachineConfig::fromString("4c2b4l64r");
    const auto b = MachineConfig::fromString("4c2b4l64r");
    // Same name, separate constructions: distinct machines as far as
    // caches are concerned.
    EXPECT_NE(a.id(), b.id());

    // Copies describe the same machine and share the stamp.
    const MachineConfig c = a;
    EXPECT_EQ(c.id(), a.id());

    // A latency override changes analysis-relevant behaviour.
    auto d = a;
    d.setLatency(OpClass::Load, 7);
    EXPECT_NE(d.id(), a.id());
}

} // namespace
} // namespace cvliw
