/**
 * @file
 * Subgraph weighting (section 3.3). The weight of a replication
 * subgraph estimates its resource impact:
 *
 *   weight(S) =  sum over replicas (v -> cluster c)
 *                  [usage(res_v, c) + extra_ops(res_v, c, S)]
 *                  / [available(res_v, c) * II]
 *                  / |{subgraphs that also need v in c}|
 *             -  sum over removable instructions u
 *                  1 / [available(res_u, home) * II]
 *
 * computed in exact rational arithmetic so the paper's worked example
 * (weights 49/16, 31/16 and 40/16; after the update 44/8 and 42/8)
 * is reproduced bit-exactly.
 */

#ifndef CVLIW_CORE_WEIGHTS_HH
#define CVLIW_CORE_WEIGHTS_HH

#include <vector>

#include "core/subgraph.hh"
#include "support/rational.hh"

namespace cvliw
{

/**
 * Weight @p sg against the current partition.
 * @param sharers the sharer counts of the current round's candidate
 *        pool (the sharing division; the pool must include @p sg
 *        itself)
 * @param removable result of findRemovableInstructions() for sg.com
 * @param usage optional precomputed Partition::usage(ddg, mach); the
 *        replication selector scores many candidates against one
 *        partition state and hoists it out of the loop
 */
Rational subgraphWeight(const Ddg &ddg, const MachineConfig &mach,
                        const Partition &part, int ii,
                        const ReplicationSubgraph &sg,
                        const SharerCounts &sharers,
                        const std::vector<NodeId> &removable,
                        const std::vector<std::vector<int>> *usage =
                            nullptr);

/**
 * Capacity check: replicas of @p sg fit into their target clusters.
 * @param usage optional precomputed Partition::usage(ddg, mach)
 */
bool replicationFeasible(const Ddg &ddg, const MachineConfig &mach,
                         const Partition &part, int ii,
                         const ReplicationSubgraph &sg,
                         const std::vector<std::vector<int>> *usage =
                             nullptr);

} // namespace cvliw

#endif // CVLIW_CORE_WEIGHTS_HH
