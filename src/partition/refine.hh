/**
 * @file
 * Partition refinement (section 2.3.1, step 2): generate candidate
 * partitions by moving nodes between clusters and keep the best one
 * according to the pseudo-schedule metric. Also invoked every time
 * the II is increased (Figure 2: "Refine Partition"), because a
 * larger II frees slots in every cluster.
 */

#ifndef CVLIW_PARTITION_REFINE_HH
#define CVLIW_PARTITION_REFINE_HH

#include "partition/partition.hh"
#include "sched/pseudo.hh"

namespace cvliw
{

/**
 * Hill-climb on single-node moves until a full pass makes no
 * improvement (at most four passes). A pass that has committed
 * nothing stops after the node of the previous pass's last commit:
 * every later probe would repeat one the previous pass rejected. Each
 * candidate move is evaluated incrementally against the current best
 * via PseudoScratch::probeMove (see sched/pseudo.hh for the delta
 * invariants); the result is identical to probing every candidate
 * with a from-scratch pseudoSchedule.
 *
 * @param ddg loop body (no copies)
 * @param mach target machine
 * @param initial starting assignment
 * @param ii probed initiation interval
 * @param scratch optional reusable evaluation state; the pipeline
 *        threads one instance through every refinement so buffers
 *        and the loop-analysis memo survive across II bumps
 * @return the refined partition (never worse than @p initial)
 */
Partition refinePartition(const Ddg &ddg, const MachineConfig &mach,
                          const Partition &initial, int ii,
                          PseudoScratch *scratch = nullptr);

} // namespace cvliw

#endif // CVLIW_PARTITION_REFINE_HH
