/**
 * @file
 * Register pressure (MaxLive) of a modulo schedule. A value is live
 * from its definition (start + latency; bus arrival for copies) to
 * its last use (consumer start + II * distance). Lifetimes longer
 * than the II overlap with later iterations of themselves, which the
 * modulo accumulation accounts for. A partition whose MaxLive exceeds
 * the per-cluster register count forces II to increase with cause
 * "registers" (Figure 1).
 */

#ifndef CVLIW_SCHED_REGPRESSURE_HH
#define CVLIW_SCHED_REGPRESSURE_HH

#include <vector>

#include "ddg/ddg.hh"
#include "partition/partition.hh"

namespace cvliw
{

/**
 * MaxLive per cluster for the schedule @p start at interval @p ii,
 * in O(ii) per value whatever its lifetime; a count past INT_MAX
 * reads INT_MAX.
 * @param start absolute start cycle per NodeId (live nodes only)
 */
std::vector<int> computeMaxLive(const Ddg &ddg,
                                const MachineConfig &mach,
                                const Partition &part,
                                const std::vector<int> &start, int ii);

} // namespace cvliw

#endif // CVLIW_SCHED_REGPRESSURE_HH
