#include "core/pipeline.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <string>

#include "core/length_replication.hh"
#include "core/spill.hh"
#include "ddg/analysis.hh"
#include "partition/multilevel.hh"
#include "partition/refine.hh"
#include "sched/comms.hh"
#include "sched/copies.hh"
#include "sched/mii.hh"
#include "sched/sms_order.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace cvliw
{

double
CompileResult::cycles(double iterations, double visits) const
{
    const double n = std::max(1.0, iterations);
    return visits * (n - 1.0 + schedule.stageCount) * ii;
}

double
CompileResult::ipc(double iterations, double visits) const
{
    const double c = cycles(iterations, visits);
    if (c <= 0.0)
        return 0.0;
    return usefulOps * std::max(1.0, iterations) * visits / c;
}

namespace
{

/** Does every (kind, cluster) fit into available * II slots? */
bool
clusterCapacityOk(const Ddg &ddg, const MachineConfig &mach,
                  const Partition &part, int ii)
{
    const auto usage = part.usage(ddg, mach);
    constexpr auto num_kinds =
        static_cast<std::size_t>(ResourceKind::NumResourceKinds);
    for (std::size_t k = 0; k < num_kinds; ++k) {
        const auto kind = static_cast<ResourceKind>(k);
        if (kind == ResourceKind::Bus)
            continue;
        for (int c = 0; c < mach.numClusters(); ++c) {
            if (usage[k][c] == 0)
                continue;
            if (usage[k][c] > mach.available(kind) * ii)
                return false;
        }
    }
    return true;
}

} // namespace

namespace
{

/**
 * The pipeline proper. The public compile(..., caches) below wraps
 * it with the default caches.
 */
CompileResult
compileImpl(const DdgRecords &records, const MachineConfig &mach,
            const PipelineOptions &opts, CompileCaches &caches)
{
    // Telemetry baselines: the caches' counters are lifetime-monotone,
    // so this compile's share is a difference.
    const auto t_compile = std::chrono::steady_clock::now();
    const std::uint64_t probes0 = caches.pseudo.probeCount();
    const std::uint64_t commits0 = caches.pseudo.commitCount();
    const std::uint64_t asap0 = caches.pseudo.asapRunCount();
    const std::uint64_t sweeps0 = caches.pseudo.widthSweepCount();

    // The input graph, converted once: every II attempt works on a
    // copy of it, and the result freezes against its records.
    const Ddg original(records);

    // The input's one analysis: the MII, the partitioner, every
    // refinement and the scheduler of an unmodified copy of the input
    // read it. Bad input fails typed here, before any pass runs.
    const LoopAnalysis input = analyzeLoop(original, mach);

    trace::TraceSpan compile_span("pipeline", "compile");
    compile_span.arg("nodes", original.numNodes());

    CompileResult result;
    result.telemetry.analysisRuns = 1;
    result.mii = std::max(resourceMii(original, mach), input.recMii);
    result.usefulOps = original.numNodes();

    const auto finish_telemetry = [&] {
        result.telemetry.refineProbes =
            caches.pseudo.probeCount() - probes0;
        result.telemetry.refineCommits =
            caches.pseudo.commitCount() - commits0;
        result.telemetry.asapRuns =
            caches.pseudo.asapRunCount() - asap0;
        result.telemetry.widthSweeps =
            caches.pseudo.widthSweepCount() - sweeps0;
        result.telemetry.totalMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t_compile)
                .count();
    };

    PartitionResult pr;
    {
        trace::TraceSpan span("pipeline", "partition",
                              &result.telemetry.partitionMs);
        pr = multilevelPartition(original, mach, input, result.mii,
                                 caches.pseudo);
    }

    SchedulerOptions sched_opts;
    sched_opts.zeroBusLatencyForLength = opts.zeroBusLatency;

    // The input's SMS order, derived the first time an unmodified
    // copy of the input is scheduled and reused by every later one.
    std::optional<std::vector<NodeId>> input_order;

    int reg_stagnation = 0;
    int best_worst_live = std::numeric_limits<int>::max();

    for (int ii = result.mii; ii <= opts.maxIi; ++ii) {
        trace::TraceSpan ii_span("pipeline", "ii_attempt");
        ii_span.arg("ii", ii);
        ++result.telemetry.iiAttempts;
        if (ii > result.mii) {
            // Figure 2: more slots per cluster, so refine.
            trace::TraceSpan span("pipeline", "refine",
                                  &result.telemetry.partitionMs);
            pr.partition = refinePartition(original, mach, input,
                                           pr.partition, ii,
                                           caches.pseudo);
        }

        Ddg work = original;
        Partition part = pr.partition;
        ReplicationStats rstats;

        auto bump = [&](FailCause cause) {
            result.iiIncreases.push_back(cause);
        };

        if (!mach.isUnified()) {
            bool repl_ok = true;
            if (opts.replication) {
                trace::TraceSpan span("pipeline", "replicate",
                                      &result.telemetry.replicationMs);
                repl_ok = reduceCommunications(
                    work, part, mach, ii, &rstats, opts.mode,
                    &pr.hierarchy, &caches.subgraph);
                result.telemetry.replicationRounds +=
                    static_cast<std::uint32_t>(
                        rstats.roundsConsidered);
                result.telemetry.comsRemoved += rstats.comsRemoved;
                span.arg("rounds", rstats.roundsConsidered);
            }
            const CommInfo comms =
                findCommunications(work, part.vec());
            if (!opts.replication)
                rstats.comsInitial = comms.count();
            if (!repl_ok ||
                extraComs(comms.count(), mach, ii) > 0) {
                bump(FailCause::Bus);
                continue;
            }
            if (!clusterCapacityOk(work, mach, part, ii)) {
                bump(FailCause::Resources);
                continue;
            }
            result.comsFinal = comms.count();
        } else {
            result.comsFinal = 0;
        }

        // Section 5.1 replication, the pre-copy graph's only reader,
        // works on it after a successful schedule. Kept only when that
        // pass runs: the copy costs O(V + E) on every attempt.
        const bool length_repl =
            opts.lengthReplication && !mach.isUnified();
        std::optional<Ddg> pre_copy;
        std::optional<Partition> pre_copy_part;
        if (length_repl) {
            pre_copy.emplace(work);
            pre_copy_part.emplace(part);
        }

        insertCopies(work, part, mach);

        // An unmodified copy of the input (same generation stamp: no
        // replica, copy or spill) is scheduled with the input's
        // analysis and order; a changed work graph is analysed here.
        const auto schedule = [&] {
            if (work.generation() == original.generation()) {
                if (!input_order)
                    input_order = smsOrder(original, input);
                return scheduleAtIi(work, mach, input, *input_order,
                                    part, ii, sched_opts, caches.sched);
            }
            ++result.telemetry.analysisRuns;
            const LoopAnalysis analysis = analyzeLoop(work, mach);
            return scheduleAtIi(work, mach, analysis,
                                smsOrder(work, analysis), part, ii,
                                sched_opts, caches.sched);
        };

        ScheduleAttempt attempt;
        {
            trace::TraceSpan span("pipeline", "schedule",
                                  &result.telemetry.scheduleMs);
            attempt = schedule();
        }

        // Register pressure that the II cannot cure is fixed with
        // spill code (store after definition, reload at the distant
        // consumers), exactly like the substrate compiler would.
        int spills_done = 0;
        const int spill_budget =
            opts.spilling ? 4 * mach.numClusters() + 8 : 0;
        bool nothing_to_spill = false;
        while (!attempt.ok &&
               attempt.cause == FailCause::Registers &&
               spills_done < spill_budget) {
            trace::TraceSpan span("pipeline", "spill_retry",
                                  &result.telemetry.scheduleMs);
            if (!spillOneValue(work, part, mach, attempt.sched)) {
                nothing_to_spill = true;
                break;
            }
            ++spills_done;
            attempt = schedule();
        }
        result.telemetry.spillRetries +=
            static_cast<std::uint32_t>(spills_done);

        if (!attempt.ok) {
            if (attempt.cause == FailCause::Registers &&
                !attempt.sched.maxLive.empty()) {
                const int worst = *std::max_element(
                    attempt.sched.maxLive.begin(),
                    attempt.sched.maxLive.end());
                if (worst < best_worst_live) {
                    best_worst_live = worst;
                    reg_stagnation = 0;
                } else if (++reg_stagnation >=
                           opts.registerStagnationLimit) {
                    const std::string spill_end =
                        !opts.spilling ? "spilling is off"
                        : nothing_to_spill
                            ? "no value was left to spill"
                            : "its spill budget of " +
                                  std::to_string(spill_budget) +
                                  " values was spent";
                    cv_warn("register pressure stuck at ", worst,
                            " > ", mach.regsPerCluster(),
                            " regs/cluster: ", reg_stagnation,
                            " register-bound IIs in a row brought no "
                            "MaxLive improvement, and at II ", ii, " ",
                            spill_end, "; giving up");
                    result.ok = false;
                    finish_telemetry();
                    return result;
                }
            } else {
                reg_stagnation = 0;
            }
            bump(attempt.cause);
            continue;
        }

        result.ok = true;
        result.ii = ii;
        result.spills = spills_done;
        result.schedule = std::move(attempt.sched);
        result.partition = std::move(part);
        result.repl = rstats;

        // Section 5.1 rebuilds the graph from the pre-copy one, which
        // holds none of the spill code appended after the copies, so
        // it runs only on attempts that spilled nothing.
        if (length_repl && spills_done == 0) {
            reduceScheduleLength(result, work, *pre_copy, *pre_copy_part,
                                 mach, sched_opts);
        }
        // The returned graph is the long-lived one, so it keeps
        // records and no adjacency, as its input's records plus what
        // replication, copy insertion, spilling or length replication
        // added (see "Graphs at rest" in ddg/ddg.hh); an unchanged
        // graph holds the input's records alone. The partition drops
        // the growth slack of the nodes those passes assigned.
        result.finalDdg = std::move(work).freeze(records);
        result.partition.shrinkToFit();
        compile_span.arg("ii", ii);
        finish_telemetry();
        return result;
    }

    cv_warn("pipeline gave up at II cap ", opts.maxIi);
    result.ok = false;
    finish_telemetry();
    return result;
}

} // namespace

CompileResult
compile(const DdgRecords &input, const MachineConfig &mach,
        const PipelineOptions &opts, CompileCaches *caches)
{
    if (caches == nullptr) {
        // The canonical no-caches path: one long-lived scratch per
        // thread, so repeated plain compile() calls amortize their
        // buffer allocations exactly like a pool worker does.
        static thread_local CompileCaches tls_caches;
        caches = &tls_caches;
    }
    return compileImpl(input, mach, opts, *caches);
}

} // namespace cvliw
