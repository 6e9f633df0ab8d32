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
#include <stdexcept>
#include <string>
#include <vector>

#include "core/replicator.hh"
#include "sched/pseudo.hh"
#include "sched/scheduler.hh"

namespace cvliw
{

/**
 * Thrown by compile() for an input graph the pipeline cannot compile:
 * today, a graph whose distance-0 edges close a cycle (no iteration
 * could ever start). A `CompileService` batch turns it into a
 * `Failed` job like any other exception.
 */
class InvalidInput : public std::runtime_error
{
  public:
    explicit InvalidInput(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Pipeline configuration. */
struct PipelineOptions
{
    /** Enable the paper's replication algorithm (section 3). */
    bool replication = true;

    /** Figure-12 bound: copies keep II impact but zero latency. */
    bool zeroBusLatency = false;

    /** Section 5.1: post-schedule replication to shorten the epilog. */
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
 * produces the same values, on any thread, at any worker count, with
 * any cache state (analysisRuns, which counts memo misses: with caches
 * that have not analysed this graph yet) - pinned by
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
     * LoopAnalysis runs: the input's, plus one per work graph (on a
     * unified machine an unspilled work graph reuses the input's).
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
    Ddg finalDdg;         //!< original + replicas + copies
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
 * Long-lived scratch and memo state for one compile worker. The
 * pipeline allocates all of its reusable buffers here, so a caller
 * that compiles many loops (the `CompileService` pool's workers)
 * amortizes every allocation across jobs instead of paying it per
 * compile. Safe to reuse across arbitrary graphs, machine configs
 * and batches: every memo inside is keyed on (`Ddg::generation()`,
 * `MachineConfig::id()`). Generation stamps are process-unique and
 * advance on every structural mutation, and config ids are
 * process-unique and re-stamped by `setLatency`, so a cache hit can
 * never surface a result computed for a different graph or machine
 * (the PseudoScratch memo inside additionally re-binds per (ddg,
 * mach, ii) and the reservation-table pool is reset per schedule
 * attempt - nothing keyed more weakly leaks across jobs). One
 * instance serves one thread; results are bit-identical whether a
 * cache is fresh or has served a thousand other jobs.
 */
struct CompileCaches
{
    /**
     * Partition-refinement scratch + the input graph's analysis (on
     * a clustered machine).
     */
    PseudoScratch pseudo;

    /**
     * The work graph's analysis (and a unified machine's input's),
     * SMS order, reservation tables.
     */
    SchedulerCache sched;

    /** Replication subgraph-walk buffers. */
    SubgraphScratch subgraph;
};

/**
 * Compile @p original for @p mach. **The** canonical entry point of
 * the pipeline - there is exactly one compile() - the historical
 * by-reference caches overload collapsed into the optional trailing
 * pointer. The input graph is copied; the caller's DDG is never
 * modified. The copy shares the input's storage (see "Shared storage"
 * in ddg/ddg.hh), so a result whose graph the pipeline left unchanged
 * (a unified-machine loop that needs no spill, a clustered loop that
 * needs no copy) holds no graph storage of its own, and a changed
 * result graph is compacted to exact size.
 *
 * @p caches selects the scratch/memo state (see CompileCaches):
 *
 *  - **null (the default)**: a long-lived *thread-local* CompileCaches
 *    is used, so plain `compile(ddg, mach)` callers amortize every
 *    buffer allocation across calls on the same thread for free. The
 *    thread-local state is never quarantined after a throwing
 *    compile; that is safe because every memo inside is keyed on
 *    (`Ddg::generation()`, `MachineConfig::id()`), so a later lookup
 *    can never surface stale data (results stay bit-identical for
 *    any cache state - the digest harness pins it).
 *  - **non-null**: compile reuses exactly the caller's caches. Owners
 *    that want the conservative quarantine contract (the
 *    `CompileService` workers) discard and replace their caches after
 *    any throwing compile, since a throw may have unwound a memo
 *    mid-update.
 *
 * Bad input throws before any pass has run. A graph whose distance-0
 * edges close a cycle throws InvalidInput once its analysis, the
 * first step of a compile, shows the cycle. A machine with no unit of
 * a kind the loop needs (say, no memory port for a load) throws
 * `std::invalid_argument` from `resourceMii`. Otherwise compile never
 * throws for policy reasons: an infeasible job returns `ok == false`,
 * and `maxIi` bounds the II search; what else can escape is
 * `std::bad_alloc`. No compile ends the process on bad input.
 * `CompileService` turns any throw into a `Failed` job outcome;
 * direct callers own the catch.
 */
CompileResult compile(const Ddg &original, const MachineConfig &mach,
                      const PipelineOptions &opts = {},
                      CompileCaches *caches = nullptr);

} // namespace cvliw

#endif // CVLIW_CORE_PIPELINE_HH
