/**
 * @file
 * The complete compilation pipeline of the paper (Figure 2 extended
 * with section 3): starting at II = MII, partition the DDG; if the
 * partition implies more communications than the buses can carry,
 * replicate subgraphs until they fit (or fail); insert copies;
 * modulo-schedule without backtracking; on any failure raise the II,
 * refine the partition and retry. Every II increase records its
 * cause (bus / recurrence / registers / resources) for Figure 1.
 */

#ifndef CVLIW_CORE_PIPELINE_HH
#define CVLIW_CORE_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "core/replicator.hh"
#include "ddg/analysis.hh"
#include "sched/pseudo.hh"
#include "sched/reservation.hh"
#include "sched/scheduler.hh"

namespace cvliw
{

/** Pipeline configuration. */
struct PipelineOptions
{
    /** Enable the paper's replication algorithm (section 3). */
    bool replication = true;

    /** Figure-12 bound: copies keep II impact but zero latency. */
    bool zeroBusLatency = false;

    /**
     * Section 5.1: post-schedule replication to shorten the epilog,
     * on the successful II attempt when it spilled nothing.
     */
    bool lengthReplication = false;

    /**
     * Generate spill code when register pressure cannot be cured by
     * raising the II. The paper's Figure 1 measures the pure
     * II-increase behaviour, so the fig01 harness disables this.
     */
    bool spilling = true;

    /** Subgraph selection (MacroNode reproduces section 5.2). */
    ReplicationMode mode = ReplicationMode::MinWeight;

    /** Hard II cap (safety net; never reached by sane inputs). */
    int maxIi = 2048;

    /**
     * Give up early when register pressure stops improving. Raising
     * the II shrinks lifetime *overlap*, and with `spilling` on each
     * II also gets a bounded number of spilled values, but neither
     * cures every cluster: one whose single-iteration width exceeds
     * its register file may never fit. After this many consecutive
     * register-caused failures with no MaxLive improvement the loop
     * is reported as failed, with a warning that says why spilling
     * did not help (off, budget spent, or no value left to spill).
     */
    int registerStagnationLimit = 24;
};

/**
 * Per-job observability counters filled by every compile.
 *
 * The structural counters (everything except the *Ms timings) are
 * **deterministic**: a given (graph, machine, options) always
 * produces the same values, on any thread, at any worker count,
 * whatever the caches compiled before - pinned by
 * tests/trace_test.cc. The *Ms fields are wall-clock phase
 * attributions and naturally vary run to run: each phase is one kind
 * of trace span (support/trace.hh) that adds its duration to its
 * field, armed or not, so an armed trace's spans sum to the fields
 * exactly.
 *
 * Telemetry is deliberately NOT part of the result digest
 * (eval/digest.hh).
 */
struct CompileTelemetry
{
    /** II values attempted (successful compile: iiAttempts = ii - mii + 1). */
    std::uint32_t iiAttempts = 0;

    /** Partition-refinement candidate moves evaluated (PseudoScratch). */
    std::uint64_t refineProbes = 0;

    /** Refinement moves actually committed. */
    std::uint64_t refineCommits = 0;

    /**
     * Runs of the pseudo-scheduler's O(V+E) kernels (PseudoScratch),
     * by refinement probes and from-scratch evaluations alike: the
     * ASAP length estimate and the register-width sweep.
     */
    std::uint64_t asapRuns = 0;
    std::uint64_t widthSweeps = 0;

    /**
     * analyzeLoop runs: the input's, plus one per schedule call on a
     * changed work graph (an attempt that leaves the input unmodified
     * - no replica, copy or spill - reuses the input's).
     */
    std::uint64_t analysisRuns = 0;

    /** Replication selection rounds, summed over every II attempt. */
    std::uint32_t replicationRounds = 0;

    /**
     * Communications removed by replication, summed over every II
     * attempt (`repl.comsRemoved` is the final II's figure alone).
     */
    std::int64_t comsRemoved = 0;

    /** Schedule retries forced by spilling, over every II attempt. */
    std::uint32_t spillRetries = 0;

    // Wall-clock phase attribution (steady_clock, milliseconds).
    double totalMs = 0.0;       //!< compile entry to return
    double partitionMs = 0.0;   //!< `partition` + `refine` spans
    double replicationMs = 0.0; //!< `replicate` spans
    double scheduleMs = 0.0;    //!< `schedule` + `spill_retry` spans
};

/** Everything the pipeline produced for one loop. */
struct CompileResult
{
    bool ok = false;
    int mii = 0;          //!< lower bound (max of ResMII, RecMII)
    int ii = 0;           //!< achieved initiation interval
    Schedule schedule;    //!< over finalDdg
    /**
     * Original + replicas + copies: the records alone, with no
     * adjacency, frozen against the input (see "Graphs at rest" in
     * ddg/ddg.hh). They share the input's node and edge arrays and
     * own only what the compile added and which input slots it
     * removed; an unchanged graph owns nothing and keeps the input's
     * stamp. A traversal converts it to a Ddg.
     */
    DdgRecords finalDdg;
    /** Covers every node of finalDdg; no spare capacity. */
    Partition partition;
    ReplicationStats repl;//!< replication statistics at the final II
    /** Cause of each II increment beyond MII, in order. */
    std::vector<FailCause> iiIncreases;
    int comsFinal = 0;    //!< communications in the final code
    int usefulOps = 0;    //!< static op count of the original loop
    int lengthSaved = 0;  //!< cycles removed by section-5.1 replication
    int spills = 0;       //!< values spilled to fit the register file
    /** Observability counters + phase timings (not digest-relevant). */
    CompileTelemetry telemetry;

    /** Useful dynamic ops per cycle for a given iteration count. */
    double ipc(double iterations, double visits = 1.0) const;

    /** Execution cycles: visits * (N - 1 + SC) * II. */
    double cycles(double iterations, double visits = 1.0) const;
};

/**
 * Reusable buffers for one compile worker. The pipeline allocates its
 * large scratch arrays here, so a caller that compiles many loops
 * (the `CompileService` pool's workers) amortizes every allocation
 * across jobs instead of paying it per compile. The caches hold no
 * result of an earlier compile: every buffer is re-armed before
 * anything reads it (`PseudoScratch::bind`, `ReservationTables::reset`,
 * the subgraph walk), so one instance may serve any sequence of
 * graphs, machine configs and batches, including after a compile
 * that threw, and results and telemetry are the same as on fresh
 * caches. One instance serves one thread.
 */
struct CompileCaches
{
    /** Partition-refinement state. */
    PseudoScratch pseudo;

    /** The scheduler's reservation tables. */
    ReservationTables sched;

    /** Replication subgraph-walk buffers. */
    SubgraphScratch subgraph;
};

/**
 * Compile @p input for @p mach. **The** canonical entry point of the
 * pipeline - there is exactly one compile() - the historical
 * by-reference caches overload collapsed into the optional trailing
 * pointer. The input is records at rest, as a suite loop holds them
 * (`Loop::ddg`); a hand-built Ddg passes as its records, copied at the
 * call and checked against the slot rules (`DdgSlotError`, see
 * `DdgRecords(const Ddg &)`). compile() converts them to a Ddg once
 * and works on copies of that graph; the caller's records are never
 * modified. The result's `finalDdg` holds records, not a Ddg: node
 * and edge records without adjacency (see "Graphs at rest" in
 * ddg/ddg.hh); a reader that traverses converts it. Every result
 * graph is frozen against the input's records (`Ddg::freeze`), so it
 * shares their node and edge blocks and keeps them alive. A result
 * whose graph the pipeline left unchanged (a unified-machine loop
 * that needs no spill, a clustered loop that needs no copy) holds
 * those blocks alone, tombstones and stamp included. A changed one
 * also owns one block: its appended nodes and live edges and a
 * tombstone bit per input slot it removed. No pass renumbers the work
 * graph (nothing compacts it), so every input node and edge keeps its
 * input id from the conversion to the freeze, which diffs the graph
 * against the input's blocks slot by slot; the appended live edges
 * follow the input's edge slots densely, and the stamp is fresh. No
 * compile builds the adjacency of the graph it returns.
 *
 * The input is analysed once (`analyzeLoop`), and the analysis is
 * passed to the partitioner, every refinement and every schedule of
 * an unchanged copy of the input; a changed work graph is analysed
 * when it is scheduled. A compile is a function of (graph, machine,
 * options) alone.
 *
 * @p caches selects the buffers (see CompileCaches): null (the
 * default) uses a long-lived *thread-local* CompileCaches, so plain
 * `compile(ddg, mach)` callers amortize every buffer allocation
 * across calls on the same thread; non-null uses exactly the
 * caller's.
 *
 * Bad input throws before any pass has run. A graph whose distance-0
 * edges close a cycle throws InvalidInput from its analysis, the
 * first step of a compile. A machine with no unit of a kind the loop
 * needs (say, no memory port for a load) throws
 * `std::invalid_argument` from `resourceMii`. Otherwise compile never
 * throws for policy reasons: an infeasible job returns `ok == false`,
 * and `maxIi` bounds the II search; what else can escape is
 * `std::bad_alloc`. No compile ends the process on bad input.
 * `CompileService` turns any throw into a failed job, whose error
 * holds the text; direct callers own the catch.
 */
CompileResult compile(const DdgRecords &input, const MachineConfig &mach,
                      const PipelineOptions &opts = {},
                      CompileCaches *caches = nullptr);

} // namespace cvliw

#endif // CVLIW_CORE_PIPELINE_HH
