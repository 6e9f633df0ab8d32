/**
 * @file
 * Structural validation of modulo schedules: dependence timing,
 * modulo resource constraints, exact per-bus occupancy, cluster
 * visibility of register reads and register pressure. The test suite
 * runs every produced schedule through this checker.
 */

#ifndef CVLIW_VLIW_CHECKER_HH
#define CVLIW_VLIW_CHECKER_HH

#include <string>
#include <vector>

#include "partition/partition.hh"
#include "sched/scheduler.hh"

namespace cvliw
{

/**
 * Check @p sched against @p ddg/@p part/@p mach. A live node that is
 * unscheduled or on no cluster of @p mach, or a copy without a
 * `busOf` entry, is reported and ends the check: the later checks
 * index by them.
 * @param opts the scheduler variant that built @p sched: in Figure-12
 *        mode (`zeroBusLatencyForLength`) a copy's value arrives at
 *        once
 * @return human-readable violations; empty means the schedule is
 *         valid
 */
std::vector<std::string>
checkSchedule(const Ddg &ddg, const MachineConfig &mach,
              const Partition &part, const Schedule &sched,
              const SchedulerOptions &opts = {});

} // namespace cvliw

#endif // CVLIW_VLIW_CHECKER_HH
