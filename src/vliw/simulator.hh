/**
 * @file
 * Functional VLIW simulator. Executes the transformed, scheduled
 * loop (replicas + copies) with cluster-private register files and
 * bus-delivered broadcasts, and verifies
 *  - structural schedule validity (via the checker),
 *  - cluster visibility and dynamic dependence timing, and
 *  - that every computed value equals the reference interpreter's
 *    value for the same semantic instruction and iteration.
 *
 * With the paper's machine model (centralized, always-hit memory;
 * lockstep clusters) the machine is deterministic, so validating the
 * dataflow of the schedule is equivalent to cycle-accurate execution.
 */

#ifndef CVLIW_VLIW_SIMULATOR_HH
#define CVLIW_VLIW_SIMULATOR_HH

#include <string>
#include <vector>

#include "partition/partition.hh"
#include "sched/scheduler.hh"
#include "vliw/checker.hh"

namespace cvliw
{

/** Outcome of simulating a schedule. */
struct SimulationReport
{
    bool ok = false;
    std::vector<std::string> errors;
    long long valuesChecked = 0;
};

/**
 * Simulate @p iterations iterations of the scheduled loop and verify
 * it against the original DDG.
 *
 * @param final_ddg transformed graph (replicas + copies)
 * @param part cluster of every node in @p final_ddg
 * @param sched the modulo schedule of @p final_ddg
 * @param original the untransformed loop body
 * @param iterations how many iterations to run (>= 1)
 * @param opts the scheduler variant that built @p sched, as for
 *        checkSchedule, which runs first with them: in Figure-12
 *        mode a copy's register-flow edges deliver at latency 0 in
 *        the dynamic timing too
 * @throws std::invalid_argument, before any check, if @p iterations
 *         < 1
 * @throws InvalidInput (from topoOrder) if the schedule passes the
 *         structural checks but a graph's distance-0 edges close a
 *         cycle
 */
SimulationReport simulate(const Ddg &final_ddg,
                          const MachineConfig &mach,
                          const Partition &part, const Schedule &sched,
                          const Ddg &original, int iterations = 8,
                          std::uint64_t seed = 1,
                          const SchedulerOptions &opts = {});

} // namespace cvliw

#endif // CVLIW_VLIW_SIMULATOR_HH
