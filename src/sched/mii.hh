/**
 * @file
 * Minimum initiation interval (MII) computation. MII is the lower
 * bound on the II of any modulo schedule: the maximum of the resource
 * bound (ResMII) and the recurrence bound (RecMII), see section 1 of
 * the paper.
 */

#ifndef CVLIW_SCHED_MII_HH
#define CVLIW_SCHED_MII_HH

#include "ddg/ddg.hh"

namespace cvliw
{

/**
 * Resource-constrained MII: for each resource kind, the number of
 * operations using it divided by the machine-wide unit count (all
 * clusters pooled — the tightest machine-independent-of-partition
 * bound), rounded up. At least 1. Throws std::invalid_argument when
 * the machine has no unit of a kind the loop needs.
 */
int resourceMii(const Ddg &ddg, const MachineConfig &mach);

/**
 * max(ResMII, RecMII), RecMII from analyzeLoop(); throws what either
 * throws.
 */
int minimumIi(const Ddg &ddg, const MachineConfig &mach);

} // namespace cvliw

#endif // CVLIW_SCHED_MII_HH
