/**
 * @file
 * Human-readable kernel view of a modulo schedule: one row per II
 * phase, one column per cluster (plus the buses), each op annotated
 * with its pipeline stage. Used by the examples to show what the
 * clustered VLIW actually executes.
 */

#ifndef CVLIW_VLIW_KERNEL_HH
#define CVLIW_VLIW_KERNEL_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "partition/partition.hh"
#include "sched/scheduler.hh"

namespace cvliw
{

/** Printable kernel of a modulo schedule. */
class KernelView
{
  public:
    /**
     * @throws std::invalid_argument, naming the node, for an II below
     *         1, a live node that @p sched leaves unscheduled, or a
     *         live non-copy on no cluster of @p mach
     */
    KernelView(const Ddg &ddg, const MachineConfig &mach,
               const Partition &part, const Schedule &sched);

    /** Render the kernel table. */
    void print(std::ostream &os) const;

    /**
     * Ops issued in @p cluster at kernel @p phase ("n<id>/s<stage>").
     * @throws std::out_of_range for a phase or cluster outside the
     *         kernel
     */
    const std::vector<std::string> &ops(int phase, int cluster) const;

    int ii() const { return ii_; }
    int stageCount() const { return stageCount_; }

  private:
    int ii_;
    int stageCount_;
    int numClusters_;
    // cells_[phase][cluster] -> list of "n<id>/s<stage>"
    std::vector<std::vector<std::vector<std::string>>> cells_;
    // busCells_[phase] -> list of the copies ("n<id>") occupying a bus
    std::vector<std::vector<std::string>> busCells_;
};

} // namespace cvliw

#endif // CVLIW_VLIW_KERNEL_HH
