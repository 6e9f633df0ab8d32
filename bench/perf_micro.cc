/**
 * @file
 * google-benchmark micro-benchmarks: throughput of the partitioner,
 * the modulo scheduler, the replication pass and the end-to-end
 * pipeline on representative generated loops. These are tooling
 * benchmarks (compiler speed), not paper figures.
 *
 * scripts/bench.sh runs this binary with --benchmark_format=json and
 * records the result as BENCH_pipeline.json at the repo root, so the
 * compile-throughput trajectory is tracked PR over PR.
 *
 * A suite loop rests as records (`Loop::ddg`), and compile() converts
 * them to a Ddg once per call, so the end-to-end and batch benchmarks
 * pay that conversion as every caller does. The pass benchmarks
 * convert their loop once, outside the timed loop, and time the pass
 * alone; BM_InputConversion prices the conversion.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>

#include "core/pipeline.hh"
#include "core/replicator.hh"
#include "ddg/analysis.hh"
#include "eval/service.hh"
#include "partition/multilevel.hh"
#include "partition/refine.hh"
#include "sched/copies.hh"
#include "sched/mii.hh"
#include "sched/scheduler.hh"
#include "sched/sms_order.hh"
#include "support/cpus.hh"
#include "support/trace.hh"
#include "workloads/suite.hh"

namespace
{

using namespace cvliw;

const std::vector<Loop> &
suite()
{
    static const std::vector<Loop> s = buildSuite(42);
    return s;
}

/** The @p idx-th loop of benchmark @p bench (the first loop if absent). */
const Loop &
sampleLoop(const char *bench, int idx)
{
    int seen = 0;
    for (const Loop &loop : suite()) {
        if (loop.benchmark == bench && seen++ == idx)
            return loop;
    }
    return suite().front();
}

/** The @p rank-th largest loop of the whole suite (rank 0 = largest). */
const Loop &
largestLoop(int rank)
{
    static const std::vector<std::size_t> by_size = [] {
        std::vector<std::size_t> order(suite().size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [](std::size_t a, std::size_t b) {
                             return suite()[a].ddg.numNodes() >
                                    suite()[b].ddg.numNodes();
                         });
        return order;
    }();
    return suite()[by_size[static_cast<std::size_t>(rank) %
                           by_size.size()]];
}

void
BM_MultilevelPartition(benchmark::State &state)
{
    const Ddg g = sampleLoop("su2cor", 3).ddg;
    const auto m = MachineConfig::fromString("4c1b2l64r");
    const int mii = minimumIi(g, m);
    for (auto _ : state)
        benchmark::DoNotOptimize(multilevelPartition(g, m, mii));
    state.SetLabel(std::to_string(g.numNodes()) + " nodes");
}
BENCHMARK(BM_MultilevelPartition);

void
BM_ModuloSchedule(benchmark::State &state)
{
    const Loop &loop = sampleLoop("hydro2d", 2);
    const auto m = MachineConfig::fromString("4c2b2l64r");
    const int mii = minimumIi(loop.ddg, m);
    const auto pr = multilevelPartition(loop.ddg, m, mii);
    // Prepare a feasible II graph once.
    Ddg g = loop.ddg;
    Partition part = pr.partition;
    reduceCommunications(g, part, m, mii + 4);
    insertCopies(g, part, m);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scheduleAtIi(g, m, part, mii + 4));
    }
}
BENCHMARK(BM_ModuloSchedule);

/** scheduleAtIi on the largest suite loop: the scheduler hot path. */
void
BM_ScheduleAtIiLargest(benchmark::State &state)
{
    const Loop &loop = largestLoop(static_cast<int>(state.range(0)));
    const auto m = MachineConfig::fromString("4c2b4l64r");
    const int mii = minimumIi(loop.ddg, m);
    const auto pr = multilevelPartition(loop.ddg, m, mii);
    Ddg g = loop.ddg;
    Partition part = pr.partition;
    reduceCommunications(g, part, m, mii + 6);
    insertCopies(g, part, m);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scheduleAtIi(g, m, part, mii + 6));
    }
    state.SetLabel(std::to_string(g.numNodes()) + " nodes");
}
BENCHMARK(BM_ScheduleAtIiLargest)->Arg(0)->Arg(1);

/**
 * scheduleAtIi in the form compile() calls: the graph's analysis and
 * SMS order computed once, outside the loop, and one set of
 * reservation tables re-armed by every call, leaving the placement
 * loop itself.
 */
void
BM_ScheduleAtIiCached(benchmark::State &state)
{
    const Loop &loop = largestLoop(static_cast<int>(state.range(0)));
    const auto m = MachineConfig::fromString("4c2b4l64r");
    const int mii = minimumIi(loop.ddg, m);
    const auto pr = multilevelPartition(loop.ddg, m, mii);
    Ddg g = loop.ddg;
    Partition part = pr.partition;
    reduceCommunications(g, part, m, mii + 6);
    insertCopies(g, part, m);
    const LoopAnalysis analysis = analyzeLoop(g, m);
    const std::vector<NodeId> order = smsOrder(g, analysis);
    ReservationTables tables;
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheduleAtIi(g, m, analysis, order, part,
                                              mii + 6, {}, tables));
    }
    state.SetLabel(std::to_string(g.numNodes()) + " nodes");
}
BENCHMARK(BM_ScheduleAtIiCached)->Arg(0)->Arg(1);

/**
 * One loop analysis: topological order, node times, SCCs and the
 * per-recurrence RecMII searches (Bellman-Ford edge relaxation).
 */
void
BM_LoopAnalysis(benchmark::State &state)
{
    const Ddg g = largestLoop(static_cast<int>(state.range(0))).ddg;
    const auto m = MachineConfig::fromString("4c2b4l64r");
    for (auto _ : state)
        benchmark::DoNotOptimize(analyzeLoop(g, m));
    state.SetLabel(std::to_string(g.numNodes()) + " nodes");
}
BENCHMARK(BM_LoopAnalysis)->Arg(0)->Arg(1);

/**
 * refinePartition alone, from a degenerate everything-in-cluster-0
 * start on the largest suite loops: the partitioner's hot path, and
 * the workload the incremental move evaluation exists for.
 */
void
BM_RefinePartition(benchmark::State &state)
{
    const Ddg g = largestLoop(static_cast<int>(state.range(0))).ddg;
    const auto m = MachineConfig::fromString("4c2b4l64r");
    const int mii = minimumIi(g, m);
    Partition p(m.numClusters(), g.numNodeSlots());
    for (NodeId n : g.nodes())
        p.assign(n, 0);
    const LoopAnalysis analysis = analyzeLoop(g, m);
    PseudoScratch scratch;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            refinePartition(g, m, analysis, p, mii, scratch));
    }
    state.SetLabel(std::to_string(g.numNodes()) + " nodes");
}
BENCHMARK(BM_RefinePartition)->Arg(0)->Arg(2);

void
BM_ReplicationPass(benchmark::State &state)
{
    const Ddg input = sampleLoop("tomcatv", 1).ddg;
    const auto m = MachineConfig::fromString("4c1b2l64r");
    const int mii = minimumIi(input, m);
    const auto pr = multilevelPartition(input, m, mii);
    for (auto _ : state) {
        Ddg g = input;
        Partition part = pr.partition;
        ReplicationStats stats;
        reduceCommunications(g, part, m, mii + 2, &stats);
        benchmark::DoNotOptimize(stats.replicasAdded);
    }
}
BENCHMARK(BM_ReplicationPass);

/**
 * A rounds-dominated replication pass on the 149-node loop: one bus
 * of latency 4 at MII starves it into 8 selection rounds, each of
 * which rebuilds every candidate subgraph and weight.
 */
void
BM_ReplicationHeavy(benchmark::State &state)
{
    const Ddg input = largestLoop(2).ddg;
    const auto m = MachineConfig::fromString("4c1b4l64r");
    const int mii = minimumIi(input, m);
    const auto pr = multilevelPartition(input, m, mii);
    for (auto _ : state) {
        Ddg g = input;
        Partition part = pr.partition;
        ReplicationStats stats;
        reduceCommunications(g, part, m, mii, &stats);
        benchmark::DoNotOptimize(stats.replicasAdded);
    }
    state.SetLabel(std::to_string(input.numNodes()) + " nodes");
}
BENCHMARK(BM_ReplicationHeavy);

void
BM_EndToEndCompile(benchmark::State &state)
{
    const Loop &loop =
        sampleLoop(state.range(0) == 0 ? "wave5" : "fpppp", 0);
    const auto m = MachineConfig::fromString("4c2b4l64r");
    for (auto _ : state)
        benchmark::DoNotOptimize(compile(loop.ddg, m));
    state.SetLabel(std::to_string(loop.ddg.numNodes()) + " nodes");
}
BENCHMARK(BM_EndToEndCompile)->Arg(0)->Arg(1);

/**
 * The headline number: full compile() (partition, replication, copy
 * insertion, modulo scheduling across II retries) on the largest
 * loops of the suite. This is what BENCH_pipeline.json tracks.
 */
void
BM_EndToEndCompileLargest(benchmark::State &state)
{
    const Loop &loop = largestLoop(static_cast<int>(state.range(0)));
    const auto m = MachineConfig::fromString("4c2b4l64r");
    for (auto _ : state)
        benchmark::DoNotOptimize(compile(loop.ddg, m));
    state.SetLabel(std::to_string(loop.ddg.numNodes()) + " nodes");
}
BENCHMARK(BM_EndToEndCompileLargest)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void
BM_SuiteGeneration(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(buildSuite(42));
}
BENCHMARK(BM_SuiteGeneration);

/**
 * The cost a suite loop at rest adds to each compile: converting the
 * 678 seed-42 suite loops' records to Ddgs, as every compile() call
 * does once for its input. Each conversion copies the loop's record
 * blocks into the graph's arrays and builds its adjacency, O(V + E),
 * in four allocations.
 */
void
BM_InputConversion(benchmark::State &state)
{
    const auto &loops = suite();
    for (auto _ : state) {
        for (const Loop &loop : loops) {
            const Ddg g = loop.ddg;
            benchmark::DoNotOptimize(g);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(loops.size()));
    state.SetLabel(std::to_string(loops.size()) + " loops");
}
BENCHMARK(BM_InputConversion);

/**
 * The one cost that result records add: converting the 678 result
 * graphs of one config (4c2b2l64r, replication on) back to Ddgs, as
 * a checker or the simulator does once per result. Each conversion
 * materializes the result's records, then rebuilds the graph's
 * adjacency, O(V + E).
 */
void
BM_ResultGraphRebuild(benchmark::State &state)
{
    static const SuiteResult results = CompileService::shared().compileSuite(
        suite(), MachineConfig::fromString("4c2b2l64r"));
    for (auto _ : state) {
        for (const CompileResult &r : results.loops) {
            const Ddg g = r.finalDdg;
            benchmark::DoNotOptimize(g);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(results.loops.size()));
    state.SetLabel(std::to_string(results.loops.size()) + " results");
}
BENCHMARK(BM_ResultGraphRebuild);

/**
 * CompileService batch throughput: the whole suite compiled for one
 * config on a persistent pool with long-lived per-worker caches.
 * Arg = worker count (0 = usable CPUs); compare Arg(1) against
 * Arg(0) for the multi-worker speedup. Results are bit-identical for
 * every worker count (tests/service_test.cc).
 */
void
BM_BatchCompile(benchmark::State &state)
{
    const auto &loops = suite();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    int workers = static_cast<int>(state.range(0));
    if (workers == 0)
        workers = static_cast<int>(usableCpuCount());
    CompileService service(workers);
    for (auto _ : state)
        benchmark::DoNotOptimize(service.compileSuite(loops, m));
    state.SetLabel(std::to_string(workers) + " workers, " +
                   std::to_string(loops.size()) + " loops");
}
BENCHMARK(BM_BatchCompile)->Arg(1)->Arg(0)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The cost of tracing (support/trace.hh): each iteration runs one
 * disarmed and one armed full-suite sweep on the same pool and
 * reports both, plus the armed-over-disarmed overhead. The disarmed
 * sweep is the contract that matters - disarmed spans are one
 * relaxed load, so `disarmed_ms` must track BM_BatchCompile/0 -
 * while `overhead_pct` prices what CVLIW_TRACE actually costs.
 */
void
BM_TraceOverhead(benchmark::State &state)
{
    const auto &loops = suite();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    CompileService service(static_cast<int>(usableCpuCount()));
    using Clock = std::chrono::steady_clock;

    trace::disarm();
    trace::clear();
    double disarmed_ms = 0.0, armed_ms = 0.0;
    for (auto _ : state) {
        const auto t0 = Clock::now();
        benchmark::DoNotOptimize(service.compileSuite(loops, m));
        const auto t1 = Clock::now();
        trace::arm(); // buffer only: no exit-time write
        benchmark::DoNotOptimize(service.compileSuite(loops, m));
        const auto t2 = Clock::now();
        trace::disarm();
        trace::clear(); // keep one sweep's events at a time
        disarmed_ms +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        armed_ms +=
            std::chrono::duration<double, std::milli>(t2 - t1).count();
    }
    const auto iters = static_cast<double>(state.iterations());
    state.counters["disarmed_ms"] = disarmed_ms / iters;
    state.counters["armed_ms"] = armed_ms / iters;
    state.counters["overhead_pct"] =
        disarmed_ms > 0.0
            ? 100.0 * (armed_ms - disarmed_ms) / disarmed_ms
            : 0.0;
    state.SetLabel(std::to_string(loops.size()) + " loops/sweep");
}
BENCHMARK(BM_TraceOverhead)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The heavy-traffic shape: many configs x many loops in one batch,
 * crossing config boundaries without a barrier.
 */
void
BM_BatchCompileMultiConfig(benchmark::State &state)
{
    std::vector<Loop> loops;
    for (std::size_t i = 0; i < suite().size(); i += 4)
        loops.push_back(suite()[i]);
    const std::vector<MachineConfig> machs = {
        MachineConfig::fromString("2c1b2l64r"),
        MachineConfig::fromString("4c2b2l64r"),
        MachineConfig::fromString("4c2b4l64r"),
    };
    CompileService service;
    for (auto _ : state)
        benchmark::DoNotOptimize(service.compileSuite(loops, machs));
    state.SetLabel(std::to_string(service.numWorkers()) +
                   " workers, " + std::to_string(loops.size()) +
                   " loops x 3 configs");
}
BENCHMARK(BM_BatchCompileMultiConfig)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
