/**
 * @file
 * Edge weighting for coarsening (section 2.3.1, step 1): each
 * register-flow edge is weighted by the impact that adding a bus
 * latency to it would have on execution time (following Aleta et al.,
 * MICRO-34 [1]). Heavy edges should not be cut, so the matching
 * collapses them first.
 */

#ifndef CVLIW_PARTITION_EDGE_WEIGHTS_HH
#define CVLIW_PARTITION_EDGE_WEIGHTS_HH

#include <vector>

#include "ddg/analysis.hh"

namespace cvliw
{

/**
 * Weight per EdgeId (dead/memory edges get weight 0); @p analysis is
 * analyzeLoop(ddg, mach).
 *
 * Components, in decreasing priority:
 *  - recurrence membership: adding latency to an edge inside an SCC
 *    directly raises RecMII, the worst outcome;
 *  - slack: if the edge's slack is below the bus latency, cutting it
 *    lengthens the critical path by the shortfall;
 *  - a base weight of 1 so any flow edge beats no edge.
 */
std::vector<long long> computeEdgeWeights(const Ddg &ddg,
                                          const MachineConfig &mach,
                                          const LoopAnalysis &analysis);

} // namespace cvliw

#endif // CVLIW_PARTITION_EDGE_WEIGHTS_HH
