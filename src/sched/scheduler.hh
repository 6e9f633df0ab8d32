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
 * Schedule @p ddg (copies already inserted) at interval @p ii.
 * @param analysis analyzeLoop(ddg, mach): node times and the
 *        topological order the placement loop reads
 * @param order smsOrder(ddg, analysis): the placement order
 * @param part cluster of every node, including copies
 * @param tables reservation tables, re-armed here for (@p mach,
 *        @p ii); the pipeline passes one instance to every attempt so
 *        that their storage is allocated once
 */
ScheduleAttempt scheduleAtIi(const Ddg &ddg, const MachineConfig &mach,
                             const LoopAnalysis &analysis,
                             const std::vector<NodeId> &order,
                             const Partition &part, int ii,
                             const SchedulerOptions &opts,
                             ReservationTables &tables);

/**
 * The form above on analyzeLoop(ddg, mach), its SMS order and
 * @p tables, if any.
 */
ScheduleAttempt scheduleAtIi(const Ddg &ddg, const MachineConfig &mach,
                             const Partition &part, int ii,
                             const SchedulerOptions &opts = {},
                             ReservationTables *tables = nullptr);

} // namespace cvliw

#endif // CVLIW_SCHED_SCHEDULER_HH
