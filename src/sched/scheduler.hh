/**
 * @file
 * The modulo scheduler (section 2.3.2): nodes are scheduled in SMS
 * order, each in the cluster chosen by the partitioner, as close as
 * possible to its already-placed neighbours. There is no
 * backtracking: any failure reports a cause (bus / recurrence /
 * registers / resources) and the driver raises the II and refines
 * the partition.
 */

#ifndef CVLIW_SCHED_SCHEDULER_HH
#define CVLIW_SCHED_SCHEDULER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ddg/analysis.hh"
#include "ddg/ddg.hh"
#include "partition/partition.hh"
#include "sched/reservation.hh"

namespace cvliw
{

/** Why a scheduling attempt failed (Figure 1 categories + resources). */
enum class FailCause : std::uint8_t
{
    None,       //!< attempt succeeded
    Bus,        //!< communications exceed bus slots / copy unplaceable
    Recurrence, //!< a placement window closed (recurrence too tight)
    Registers,  //!< MaxLive exceeds the per-cluster register file
    Resources   //!< an FU slot could not be found in a full-II window
};

/** Short name of @p cause. */
const char *toString(FailCause cause);

/** A complete modulo schedule. */
struct Schedule
{
    int ii = 0;
    /** Absolute start cycle per NodeId (-1 for dead/unscheduled). */
    std::vector<int> start;
    /** Bus used by each Copy node (-1 for non-copies), one byte each. */
    std::vector<ClusterId> busOf;
    int length = 0;     //!< span of one iteration in cycles
    int stageCount = 0; //!< SC = ceil(length / II)
    std::vector<int> maxLive; //!< per-cluster register pressure
};

/** Outcome of one scheduling attempt at a fixed II. */
struct ScheduleAttempt
{
    bool ok = false;
    FailCause cause = FailCause::None;
    NodeId failedNode = invalidNode;
    Schedule sched;
};

/** Knobs for scheduling variants. */
struct SchedulerOptions
{
    /**
     * Figure-12 upper bound: copies still occupy bus slots (their II
     * impact is kept) but contribute zero latency to dependences and
     * to the schedule length.
     */
    bool zeroBusLatencyForLength = false;
};

/**
 * Generation-keyed memo shared across scheduling attempts. The
 * pipeline retries scheduleAtIi at every II bump and after every
 * spill, and the work graph's LoopAnalysis and SMS order only depend
 * on the graph (never on the II) - so attempts on an unchanged graph
 * reuse them wholesale, and the ordering and the placement loop
 * share one analysis. Entries carry the machine config's identity
 * stamp, so one cache may serve several configs without stale reuse.
 * The input graph's analysis lives in its own memo (PseudoScratch's),
 * which a changed work graph never evicts; an attempt on an
 * unmodified copy of the input reads it from there. The reservation
 * tables are also pooled here: every attempt resets them in place
 * instead of reallocating.
 */
struct SchedulerCache
{
    /** The changed work graphs' analysis memo. */
    AnalysisCache analyses;

    /**
     * A memo read before `analyses` (not owned; null for none).
     * CompileCaches points it at the input graph's memo, so an attempt
     * on an unmodified copy of the input (same stamp) uses the input's
     * analysis instead of running it again.
     */
    const AnalysisCache *inputAnalyses = nullptr;

    /** analyzeLoop(ddg, mach), from inputAnalyses or `analyses`. */
    const LoopAnalysis &analysis(const Ddg &ddg,
                                 const MachineConfig &mach);

    /** Cached smsOrder(ddg, analysis(ddg, mach)). */
    const std::vector<NodeId> &order(const Ddg &ddg,
                                     const MachineConfig &mach);

    /**
     * Pooled reservation tables, reset in place for each attempt.
     * The returned reference is re-armed (empty, at @p ii) and valid
     * until the next call.
     */
    ReservationTables &tables(const MachineConfig &mach, int ii);

  private:
    // (graph stamp, config id) of order_; stamps start at 1.
    std::uint64_t orderGen_ = 0;
    std::uint64_t orderCfg_ = 0;
    std::vector<NodeId> order_;
    std::uint64_t tablesCfg_ = 0;
    const MachineConfig *tablesMach_ = nullptr;
    std::optional<ReservationTables> tables_;
};

/**
 * Schedule @p ddg (copies already inserted) at interval @p ii.
 * @param part cluster of every node, including copies
 * @param cache optional cross-attempt memo (see SchedulerCache);
 *        pass the same instance to every attempt on one graph lineage
 */
ScheduleAttempt scheduleAtIi(const Ddg &ddg, const MachineConfig &mach,
                             const Partition &part, int ii,
                             const SchedulerOptions &opts = {},
                             SchedulerCache *cache = nullptr);

} // namespace cvliw

#endif // CVLIW_SCHED_SCHEDULER_HH
