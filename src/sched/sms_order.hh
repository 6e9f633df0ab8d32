/**
 * @file
 * Scheduling priority order in the spirit of Swing Modulo Scheduling
 * (Llosa et al., PACT'96), as used in section 2.3.2 of the paper:
 * the most constraining recurrences get priority, and nodes are
 * emitted in a priority-topological order of the intra-iteration
 * (distance-0) subgraph. The topological property guarantees that
 * when a node is placed, constraints from already-placed successors
 * can only come through loop-carried edges, whose windows widen as
 * the II grows - so the no-backtracking scheduler always makes
 * progress when the driver raises the II. (Full SMS additionally
 * alternates bottom-up/top-down sweeps to shorten lifetimes; this
 * implementation trades that refinement for the progress guarantee
 * and handles lifetimes via the MaxLive check.)
 */

#ifndef CVLIW_SCHED_SMS_ORDER_HH
#define CVLIW_SCHED_SMS_ORDER_HH

#include <vector>

#include "ddg/analysis.hh"
#include "ddg/ddg.hh"

namespace cvliw
{

/**
 * Compute the scheduling order of all live nodes from @p analysis,
 * analyzeLoop(ddg, mach). Guarantees: every live node appears exactly
 * once; recurrence nodes of the tightest recurrences come first.
 */
std::vector<NodeId> smsOrder(const Ddg &ddg,
                             const LoopAnalysis &analysis);

} // namespace cvliw

#endif // CVLIW_SCHED_SMS_ORDER_HH
