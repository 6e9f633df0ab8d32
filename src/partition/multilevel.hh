/**
 * @file
 * Top-level multilevel partitioner (section 2.3.1): weight edges,
 * coarsen to one macro-node per cluster, project the induced
 * partition and refine it with the pseudo-schedule metric.
 */

#ifndef CVLIW_PARTITION_MULTILEVEL_HH
#define CVLIW_PARTITION_MULTILEVEL_HH

#include "partition/coarsen.hh"
#include "partition/partition.hh"
#include "sched/pseudo.hh"

namespace cvliw
{

/** Partition plus the coarsening hierarchy that produced it. */
struct PartitionResult
{
    Partition partition;
    CoarseningHierarchy hierarchy;
};

/**
 * Build an initial partition of @p ddg for @p mach at interval @p ii.
 * For a unified machine all nodes land in cluster 0.
 * @param analysis analyzeLoop(ddg, mach): the edge weights and the
 *        refinement read it
 * @param scratch reusable refinement state (see refinePartition)
 */
PartitionResult multilevelPartition(const Ddg &ddg,
                                    const MachineConfig &mach,
                                    const LoopAnalysis &analysis, int ii,
                                    PseudoScratch &scratch);

/** The form above on analyzeLoop(ddg, mach) and @p scratch, if any. */
PartitionResult multilevelPartition(const Ddg &ddg,
                                    const MachineConfig &mach, int ii,
                                    PseudoScratch *scratch = nullptr);

} // namespace cvliw

#endif // CVLIW_PARTITION_MULTILEVEL_HH
