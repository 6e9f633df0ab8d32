/**
 * @file
 * Pipeline (Figure 2 + section 3) tests: II >= MII, cause tracking,
 * replication on/off behaviour, unified machines and end-to-end
 * validity of everything the pipeline emits.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "core/pipeline.hh"
#include "ddg/builder.hh"
#include "paper_graph.hh"
#include "partition/multilevel.hh"
#include "partition/refine.hh"
#include "sched/comms.hh"
#include "sched/mii.hh"
#include "vliw/checker.hh"
#include "vliw/reference.hh"
#include "vliw/simulator.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

/** Live copy nodes of @p g. */
int
copyCount(const Ddg &g)
{
    int copies = 0;
    for (NodeId n : g.nodes())
        copies += g.node(n).cls == OpClass::Copy;
    return copies;
}

TEST(Pipeline, UnifiedMachineSchedulesAtMii)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("f", OpClass::FpAlu, {"ld"});
    b.op("st", OpClass::Store, {"f"});
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();

    const auto r = compile(g, m);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.ii, r.mii);
    EXPECT_EQ(r.comsFinal, 0);
    EXPECT_EQ(copyCount(r.finalDdg), 0);
    EXPECT_TRUE(
        checkSchedule(r.finalDdg, m, r.partition, r.schedule).empty());
}

TEST(Pipeline, HugeMemoryDistanceCompilesAtMii)
{
    // f's recurrence sets the MII to the FpAlu latency (3), and a
    // memory edge of distance 2^30 joins the load and the store. At
    // II 3, ii * distance = 3 * 2^30 exceeds an int. Two inputs:
    //  - ld -> st: the store may not overwrite what the load read
    //    2^30 iterations earlier; the scheduler's placement window
    //    must not overflow on it;
    //  - st -> ld: the store's only out-edge is that memory edge, so
    //    the sink pass bounds it by start(ld) + 3 * 2^30; that bound
    //    must not be truncated to an int.
    constexpr int distance = 1 << 30;
    std::vector<Ddg> graphs;
    for (const bool store_first : {false, true}) {
        DdgBuilder b;
        b.op("ld", OpClass::Load);
        b.op("f", OpClass::FpAlu, {"ld"});
        b.flow("f", "f", 1);
        b.op("st", OpClass::Store, {"f"});
        if (store_first)
            b.mem("st", "ld", distance);
        else
            b.mem("ld", "st", distance);
        graphs.push_back(b.take());
    }

    for (std::size_t i = 0; i < graphs.size(); ++i) {
        const Ddg &g = graphs[i];
        for (const char *cfg : {"unified", "2c1b2l64r", "4c2b4l64r"}) {
            SCOPED_TRACE(std::string(cfg) + ", graph " +
                         std::to_string(i));
            const auto m = MachineConfig::fromString(cfg);
            const auto r = compile(g, m);
            ASSERT_TRUE(r.ok);
            EXPECT_EQ(r.ii, r.mii);
            EXPECT_GT(static_cast<long long>(r.ii) * distance, 1LL << 31);
            const auto errors =
                checkSchedule(r.finalDdg, m, r.partition, r.schedule);
            EXPECT_TRUE(errors.empty()) << errors.front();
            const auto sim =
                simulate(r.finalDdg, m, r.partition, r.schedule, g);
            EXPECT_TRUE(sim.ok)
                << (sim.errors.empty() ? "" : sim.errors.front());
        }
    }
}

TEST(Pipeline, SunkNodeKeepsItsCompletionInIntRange)
{
    // ld2 is live-out and its only successor at placement time is ld,
    // over a memory edge, so at II 1 the scheduler places or sinks it
    // as late as its upper bound allows. Two inputs:
    //  - distance INT_MAX: that bound must leave room for ld2's
    //    latency: its completion cycle, the schedule length and the
    //    stage count are ints;
    //  - distance 2^30 and a consumer use of ld2: ld2 lands on the
    //    bound's cap, and use's start must not be clamped down to
    //    that same cap, before the load completes.
    for (const bool with_use : {false, true}) {
        SCOPED_TRACE(with_use ? "with use" : "without use");
        DdgBuilder b;
        b.op("ld", OpClass::Load);
        b.op("f", OpClass::FpAlu, {"ld"});
        b.op("st", OpClass::Store, {"f"});
        b.op("ld2", OpClass::Load);
        b.mem("ld2", "ld",
              with_use ? 1 << 30 : std::numeric_limits<int>::max());
        if (with_use)
            b.op("use", OpClass::IntAlu, {"ld2"});
        Ddg g = b.take();
        g.node(b.id("ld2")).liveOut = true;
        const auto m = MachineConfig::unified();
        const auto r = compile(g, m);
        ASSERT_TRUE(r.ok);
        EXPECT_EQ(r.ii, 1);
        const long long done =
            static_cast<long long>(r.schedule.start[b.id("ld2")]) +
            m.latency(OpClass::Load);
        EXPECT_GE(r.schedule.length, done);
        EXPECT_GE(r.schedule.stageCount, 1);
        const auto errors =
            checkSchedule(r.finalDdg, m, r.partition, r.schedule);
        EXPECT_TRUE(errors.empty()) << errors.front();
        const auto sim =
            simulate(r.finalDdg, m, r.partition, r.schedule, g);
        EXPECT_TRUE(sim.ok)
            << (sim.errors.empty() ? "" : sim.errors.front());
    }
}

TEST(Pipeline, LoopCarriedFlowEdgeCompilesOnEverySuiteLoop)
{
    // Setting a distance-0 flow edge to distance 1 keeps a loop legal
    // but lets the scheduler place a node at a negative cycle. The
    // sink pass's MaxLive check must not read such a start as the
    // "unscheduled" -1.
    const auto suite = buildSuite(42);
    for (const char *cfg : {"unified", "4c2b2l64r"}) {
        const auto m = MachineConfig::fromString(cfg);
        for (const Loop &loop : suite) {
            SCOPED_TRACE(std::string(cfg) + " " + loop.name());
            Ddg g = loop.ddg;
            for (EdgeId eid : g.edges()) {
                const DdgEdge &e = std::as_const(g).edge(eid);
                if (e.kind == EdgeKind::RegFlow && e.distance == 0) {
                    g.edge(eid).distance = 1;
                    break;
                }
            }
            const auto r = compile(g, m);
            ASSERT_TRUE(r.ok);
            const auto errors =
                checkSchedule(r.finalDdg, m, r.partition, r.schedule);
            ASSERT_TRUE(errors.empty()) << errors.front();
            const auto sim =
                simulate(r.finalDdg, m, r.partition, r.schedule, g);
            ASSERT_TRUE(sim.ok)
                << (sim.errors.empty() ? "" : sim.errors.front());
        }
    }
}

TEST(Pipeline, InputGraphIsAnalysedOncePerCompile)
{
    // The MII, the edge weights and every refinement probe at every
    // II read the input's one analysis; beyond it, a compile analyses
    // at most one work graph per schedule call, and a schedule call
    // takes an II attempt or a spill retry.
    const auto m = MachineConfig::fromString("4c1b2l64r");
    int checked = 0;
    for (const Loop &loop : buildBenchmark("tomcatv")) {
        const auto r = compile(loop.ddg, m);
        ASSERT_TRUE(r.ok);
        if (r.telemetry.iiAttempts < 2)
            continue;
        SCOPED_TRACE(loop.name());
        EXPECT_GE(r.telemetry.analysisRuns, 1u);
        EXPECT_LE(r.telemetry.analysisRuns,
                  1u + r.telemetry.iiAttempts + r.telemetry.spillRetries);
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

TEST(Pipeline, UnifiedCompileAnalysesItsInputOnce)
{
    // A unified machine schedules an unmodified copy of the input, so
    // without spill code the input's analysis serves every attempt.
    const auto m = MachineConfig::unified();
    int checked = 0;
    for (const Loop &loop : buildBenchmark("tomcatv")) {
        CompileCaches caches;
        const auto r = compile(loop.ddg, m, {}, &caches);
        ASSERT_TRUE(r.ok);
        if (r.spills > 0)
            continue;
        SCOPED_TRACE(loop.name());
        EXPECT_EQ(r.telemetry.analysisRuns, 1u);
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

TEST(Pipeline, UnmodifiedClusteredWorkGraphReusesTheInputAnalysis)
{
    // A clustered attempt that adds no replica, copy or spill
    // schedules an unmodified copy of the input (same stamp): the
    // scheduler reads the input's analysis instead of running it again.
    const auto m = MachineConfig::fromString("2c1b2l64r");
    int checked = 0;
    for (const Loop &loop : buildSuite(42)) {
        CompileCaches caches;
        const auto r = compile(loop.ddg, m, {}, &caches);
        ASSERT_TRUE(r.ok);
        if (r.ii != r.mii || r.repl.replicasAdded > 0 ||
            copyCount(r.finalDdg) > 0 || r.spills > 0)
            continue;
        SCOPED_TRACE(loop.name());
        EXPECT_EQ(r.finalDdg.generation(), loop.ddg.generation());
        EXPECT_EQ(r.telemetry.analysisRuns, 1u);
        ++checked;
    }
    EXPECT_GT(checked, 200);
}

TEST(Pipeline, HugeFlowDistanceGivesUpAtMaxIi)
{
    // The load's value is read 2^26 iterations later, so it lives
    // ii * 2^26 cycles and no II up to maxIi fits it in registers.
    // MaxLive costs O(ii) per value, so the six register-bound IIs
    // take microseconds, not ii * 2^26 steps each.
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("f", OpClass::FpAlu, {"ld"});
    b.flow("f", "f", 1);
    b.op("st", OpClass::Store, {"f"});
    b.flow("ld", "st", 1 << 26);
    const Ddg g = b.take();
    PipelineOptions opts;
    opts.maxIi = 8;
    const auto r = compile(g, MachineConfig::unified(), opts);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.mii, 3);
    EXPECT_EQ(r.iiIncreases,
              std::vector<FailCause>(6, FailCause::Registers));
}

TEST(Pipeline, IiNeverBelowMii)
{
    const auto loops = buildBenchmark("apsi");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    for (std::size_t i = 0; i < 6 && i < loops.size(); ++i) {
        const auto r = compile(loops[i].ddg, m);
        ASSERT_TRUE(r.ok);
        EXPECT_GE(r.ii, r.mii);
        EXPECT_EQ(r.ii,
                  r.mii + static_cast<int>(r.iiIncreases.size()));
    }
}

TEST(Pipeline, ReplicationNeverLosesToBaseline)
{
    // The replication pipeline explores a superset of the baseline's
    // options at each II, so its final II must not be larger.
    const auto loops = buildBenchmark("su2cor");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    PipelineOptions base;
    base.replication = false;
    for (std::size_t i = 0; i < 8 && i < loops.size(); ++i) {
        const auto with = compile(loops[i].ddg, m);
        const auto without = compile(loops[i].ddg, m, base);
        ASSERT_TRUE(with.ok);
        ASSERT_TRUE(without.ok);
        EXPECT_LE(with.ii, without.ii) << loops[i].name();
    }
}

TEST(Pipeline, BaselineDoesNotReplicate)
{
    PaperExample ex;
    PipelineOptions base;
    base.replication = false;
    const auto r = compile(ex.ddg, ex.mach, base);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.repl.replicasAdded, 0);
    EXPECT_EQ(r.repl.comsRemoved, 0);
    const Ddg final_ddg = r.finalDdg;
    for (NodeId n : final_ddg.nodes())
        EXPECT_FALSE(final_ddg.node(n).isReplica);
}

TEST(Pipeline, PaperExampleCompilesValidly)
{
    // The pipeline partitions the worked-example graph itself (it is
    // not forced into the paper's hand partition), so only the
    // structural invariants are asserted here; the exact worked
    // numbers are covered by paper_example_test with the paper's
    // partition.
    PaperExample ex;
    const auto r = compile(ex.ddg, ex.mach);
    ASSERT_TRUE(r.ok);
    EXPECT_GE(r.ii, r.mii);
    EXPECT_LE(r.comsFinal, busCapacity(ex.mach, r.ii));
    EXPECT_TRUE(checkSchedule(r.finalDdg, ex.mach, r.partition,
                              r.schedule)
                    .empty());

    // And it must not lose to the baseline.
    PipelineOptions base;
    base.replication = false;
    const auto rb = compile(ex.ddg, ex.mach, base);
    ASSERT_TRUE(rb.ok);
    EXPECT_LE(r.ii, rb.ii);
}

TEST(Pipeline, PaperExampleBaselineNeedsLargerIi)
{
    PaperExample ex;
    PipelineOptions base;
    base.replication = false;
    const auto r = compile(ex.ddg, ex.mach, base);
    ASSERT_TRUE(r.ok);
    // Three comms on a 1-cycle bus need II >= 3 (or a repartition
    // that trades comms for imbalance; either way > MII is likely).
    EXPECT_GE(r.ii, 2);
    if (r.ii > r.mii) {
        EXPECT_FALSE(r.iiIncreases.empty());
    }
}

TEST(Pipeline, CopiesMatchFinalComms)
{
    const auto loops = buildBenchmark("hydro2d");
    const auto m = MachineConfig::fromString("4c2b2l64r");
    for (std::size_t i = 0; i < 6 && i < loops.size(); ++i) {
        const auto r = compile(loops[i].ddg, m);
        ASSERT_TRUE(r.ok);
        EXPECT_EQ(copyCount(r.finalDdg), r.comsFinal) << loops[i].name();
        // Bus capacity honored at the final II.
        EXPECT_LE(r.comsFinal, busCapacity(m, r.ii));
    }
}

TEST(Pipeline, UsefulOpsCountsOriginalOnly)
{
    PaperExample ex;
    const auto r = compile(ex.ddg, ex.mach);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.usefulOps, 14);
}

TEST(Pipeline, CyclesFormula)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("st", OpClass::Store, {"ld"});
    const Ddg g = b.take();
    const auto r = compile(g, MachineConfig::unified());
    ASSERT_TRUE(r.ok);
    // Texec = (N - 1 + SC) * II per visit.
    const double expected =
        (100.0 - 1 + r.schedule.stageCount) * r.ii * 7.0;
    EXPECT_DOUBLE_EQ(r.cycles(100.0, 7.0), expected);
    EXPECT_GT(r.ipc(100.0), 0.0);
}

TEST(Pipeline, ZeroBusLatencyBoundNotSlower)
{
    const auto loops = buildBenchmark("tomcatv");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    PipelineOptions bound;
    bound.zeroBusLatency = true;
    for (std::size_t i = 0; i < 4 && i < loops.size(); ++i) {
        const auto normal = compile(loops[i].ddg, m);
        const auto zero = compile(loops[i].ddg, m, bound);
        ASSERT_TRUE(normal.ok);
        ASSERT_TRUE(zero.ok);
        // Same II search, shorter or equal length.
        if (zero.ii == normal.ii) {
            EXPECT_LE(zero.schedule.length, normal.schedule.length)
                << loops[i].name();
        }
    }
}

TEST(Pipeline, Figure1CausesAreTracked)
{
    // Across a communication-heavy benchmark on a narrow-bus
    // machine, bus causes must dominate (Figure 1: 70-90%).
    const auto loops = buildBenchmark("su2cor");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    PipelineOptions base;
    base.replication = false;
    int bus = 0, total = 0;
    for (std::size_t i = 0; i < 12 && i < loops.size(); ++i) {
        const auto r = compile(loops[i].ddg, m, base);
        ASSERT_TRUE(r.ok);
        for (const FailCause c : r.iiIncreases) {
            total += 1;
            bus += (c == FailCause::Bus);
        }
    }
    ASSERT_GT(total, 0);
    EXPECT_GT(static_cast<double>(bus) / total, 0.5);
}

/**
 * Does a result graph hold @p in's records alone - no block of its
 * own - with @p in's slots and stamp?
 */
bool
sharesInput(const DdgRecords &result, const Ddg &in)
{
    return result.ownedBytes() == 0 &&
           result.numNodeSlots() == in.numNodeSlots() &&
           result.numEdgeSlots() == in.numEdgeSlots() &&
           result.generation() == in.generation();
}

/** Every node and edge record of @p g, as bytes. */
std::string
recordBytes(const Ddg &g)
{
    std::string bytes;
    for (NodeId n = 0; n < g.numNodeSlots(); ++n)
        bytes.append(reinterpret_cast<const char *>(&g.node(n)),
                     sizeof(DdgNode));
    for (EdgeId e = 0; e < g.numEdgeSlots(); ++e)
        bytes.append(reinterpret_cast<const char *>(&g.edge(e)),
                     sizeof(DdgEdge));
    return bytes;
}

TEST(Pipeline, UnchangedResultGraphSharesTheInputStorage)
{
    // Unified machine: nothing edits the work graph. The input holds
    // a tombstoned edge, which the result keeps.
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("f", OpClass::FpAlu, {"ld"});
    b.op("st", OpClass::Store, {"f"});
    Ddg g = b.take();
    const EdgeId dead =
        g.addEdge(b.id("ld"), b.id("st"), EdgeKind::Memory);
    g.removeEdge(dead);
    const auto r = compile(g, MachineConfig::unified());
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.spills, 0);
    EXPECT_TRUE(sharesInput(r.finalDdg, g));
    EXPECT_FALSE(Ddg(r.finalDdg).edge(dead).alive);

    // Clustered machine, a loop whose communications fit without a
    // copy: two independent chains, one per cluster.
    DdgBuilder c;
    c.op("ld0", OpClass::Load);
    c.op("f0", OpClass::FpAlu, {"ld0"});
    c.op("st0", OpClass::Store, {"f0"});
    c.op("ld1", OpClass::Load);
    c.op("f1", OpClass::FpAlu, {"ld1"});
    c.op("st1", OpClass::Store, {"f1"});
    const Ddg two = c.take();
    const auto rc = compile(two, MachineConfig::fromString("2c1b2l64r"));
    ASSERT_TRUE(rc.ok);
    EXPECT_EQ(rc.comsFinal, 0);
    EXPECT_EQ(rc.repl.replicasAdded, 0);
    EXPECT_TRUE(sharesInput(rc.finalDdg, two));
}

/**
 * Does a changed result graph keep @p in's records in @p in's slots (a
 * removed one loses its alive flag), own only the appended slots and
 * the tombstone words, and hold every appended slot live?
 */
void
expectOwnsOnlyItsAdditions(const DdgRecords &result, const Ddg &in)
{
    EXPECT_NE(result.generation(), in.generation());
    const int bn = in.numNodeSlots(), be = in.numEdgeSlots();
    const Ddg g = result;
    for (NodeId n = 0; n < g.numNodeSlots(); ++n) {
        DdgNode rec = g.node(n);
        if (n >= bn) {
            EXPECT_TRUE(rec.alive) << "appended node " << n;
            continue;
        }
        EXPECT_TRUE(in.node(n).alive || !rec.alive) << "node " << n;
        rec.alive = in.node(n).alive;
        EXPECT_EQ(std::memcmp(&rec, &in.node(n), sizeof rec), 0)
            << "node " << n;
    }
    for (EdgeId e = 0; e < g.numEdgeSlots(); ++e) {
        DdgEdge rec = g.edge(e);
        if (e >= be) {
            EXPECT_TRUE(rec.alive) << "appended edge " << e;
            continue;
        }
        EXPECT_TRUE(in.edge(e).alive || !rec.alive) << "edge " << e;
        rec.alive = in.edge(e).alive;
        EXPECT_EQ(std::memcmp(&rec, &in.edge(e), sizeof rec), 0)
            << "edge " << e;
    }
    const std::size_t added_nodes =
        static_cast<std::size_t>(result.numNodeSlots() - bn);
    const std::size_t added_edges =
        static_cast<std::size_t>(result.numEdgeSlots() - be);
    EXPECT_EQ(result.ownedBytes(),
              8 * added_nodes + 16 * added_edges +
                  8 * static_cast<std::size_t>((bn + be + 63) / 64));
}

TEST(Pipeline, ResultGraphWithCopiesOwnsOnlyItsAdditions)
{
    PaperExample ex;
    const Ddg &in = ex.ddg;
    const std::string image = recordBytes(in);
    const auto r = compile(in, ex.mach);
    ASSERT_TRUE(r.ok);
    ASSERT_GT(copyCount(r.finalDdg), 0);
    EXPECT_GT(r.finalDdg.numNodeSlots(), in.numNodeSlots());
    expectOwnsOnlyItsAdditions(r.finalDdg, in);
    EXPECT_EQ(recordBytes(in), image) << "the input was written";
}

TEST(Pipeline, SuiteLoopResultsShareTheLoopsArrays)
{
    // A suite loop rests as records. Each compile converts them and
    // freezes its result against them, so an unchanged result holds
    // the loop's own blocks and stamp, and a changed one owns only its
    // additions. No compile writes the shared blocks.
    const auto loops = buildBenchmark("swim");
    int unchanged = 0, changed = 0;
    for (const char *cfg : {"unified", "2c1b2l64r"}) {
        const auto m = MachineConfig::fromString(cfg);
        for (const Loop &loop : loops) {
            SCOPED_TRACE(loop.name() + " on " + cfg);
            const Ddg in(loop.ddg);
            const std::string image = recordBytes(in);
            const auto r = compile(loop.ddg, m);
            ASSERT_TRUE(r.ok);
            EXPECT_EQ(recordBytes(in), image) << "the loop was written";
            if (r.finalDdg.ownedBytes() != 0) {
                ++changed;
                expectOwnsOnlyItsAdditions(r.finalDdg, in);
                continue;
            }
            ++unchanged;
            EXPECT_TRUE(sharesInput(r.finalDdg, in));
        }
    }
    EXPECT_GT(unchanged, 0);
    EXPECT_GT(changed, 0);
}

/** a -> b -> a, both at distance 0: no iteration could ever start. */
Ddg
zeroDistanceCycle()
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    const NodeId b = g.addNode(OpClass::IntAlu);
    g.addEdge(a, b, EdgeKind::RegFlow, 0);
    g.addEdge(b, a, EdgeKind::RegFlow, 0);
    return g;
}

TEST(Pipeline, EveryPassRejectsAZeroDistanceCycle)
{
    // Each entry point analyses or orders its graph first, so none
    // of them gets as far as a pass that assumes an acyclic order.
    const Ddg g = zeroDistanceCycle();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    Partition part(m.numClusters(), g.numNodeSlots());
    for (NodeId n : g.nodes())
        part.assign(n, 0);
    EXPECT_THROW(minimumIi(g, m), InvalidInput);
    EXPECT_THROW(multilevelPartition(g, m, 2), InvalidInput);
    EXPECT_THROW(refinePartition(g, m, part, 2), InvalidInput);
    EXPECT_THROW(scheduleAtIi(g, m, part, 2), InvalidInput);
    EXPECT_THROW(ReferenceInterpreter ref(g, 4, 1), InvalidInput);
}

TEST(Pipeline, StaleFieldEditThrowsInvalidInput)
{
    // A field write through Ddg::edge() needs no bumpGeneration():
    // every compile analyses the graph as it is. Turning tomcatv#0's
    // distance-1 self-loop into a distance-0 one makes the graph
    // illegal, and the next compile on the same thread-local caches
    // must say so.
    const auto m = MachineConfig::fromString("4c2b2l64r");
    Ddg g = buildBenchmark("tomcatv").front().ddg;
    ASSERT_TRUE(compile(g, m).ok);
    DdgEdge &e = g.edge(0);
    ASSERT_EQ(e.src, e.dst);
    ASSERT_EQ(e.distance, 1);
    e.distance = 0;
    EXPECT_THROW(compile(g, m), InvalidInput);
}

TEST(Pipeline, ZeroDistanceCycleThrowsInvalidInput)
{
    const Ddg g = zeroDistanceCycle();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    EXPECT_THROW(compile(g, MachineConfig::unified()), InvalidInput);
    EXPECT_THROW(compile(g, m), InvalidInput);

    // The same loop with the back edge loop-carried compiles.
    Ddg ok;
    const NodeId a = ok.addNode(OpClass::IntAlu);
    const NodeId b = ok.addNode(OpClass::IntAlu);
    ok.addEdge(a, b, EdgeKind::RegFlow, 0);
    ok.addEdge(b, a, EdgeKind::RegFlow, 1);
    EXPECT_TRUE(compile(ok, m).ok);
}

} // namespace
} // namespace cvliw
