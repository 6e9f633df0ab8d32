/**
 * @file
 * Section 5.1: replication aimed at the schedule length rather than
 * the II. For low-trip-count loops (applu) the prolog/epilog cost
 * (SC stages) dominates, so removing a bus latency from the critical
 * path of one iteration matters more than the II. The producer is
 * replicated only into the cluster where the critical consumer
 * lives; the communication itself may survive for other clusters.
 */

#ifndef CVLIW_CORE_LENGTH_REPLICATION_HH
#define CVLIW_CORE_LENGTH_REPLICATION_HH

#include "core/pipeline.hh"

namespace cvliw
{

struct CompileResult;

/**
 * Try to shorten result.schedule.length by replicating producers of
 * critical copies (bounded number of attempts). On success, the
 * result's schedule and partition and @p final_ddg are replaced,
 * result.comsFinal counts the copies of the new @p final_ddg, and
 * result.lengthSaved records the improvement.
 *
 * @param result a successful compile at some II that spilled nothing
 *        (updated in place)
 * @param final_ddg the graph result.schedule schedules (updated in
 *        place); the pipeline freezes it into result.finalDdg after.
 *        It must be @p pre_copy plus the copies alone: a rebuild
 *        from @p pre_copy would drop spill code, and a critical
 *        copy's producer must be a node of @p pre_copy
 * @param pre_copy @p final_ddg *before* copy insertion
 * @param pre_copy_part partition matching @p pre_copy
 */
void reduceScheduleLength(CompileResult &result, Ddg &final_ddg,
                          const Ddg &pre_copy,
                          const Partition &pre_copy_part,
                          const MachineConfig &mach,
                          const SchedulerOptions &sched_opts);

} // namespace cvliw

#endif // CVLIW_CORE_LENGTH_REPLICATION_HH
