/**
 * @file
 * Reference interpreter: executes the *original* loop DDG
 * sequentially, producing a deterministic 64-bit value per
 * (instruction, iteration). The VLIW simulator checks that every
 * instance (original, replica or copy) in the transformed, scheduled
 * graph computes exactly the reference value — replication must
 * never change loop semantics.
 */

#ifndef CVLIW_VLIW_REFERENCE_HH
#define CVLIW_VLIW_REFERENCE_HH

#include <cstdint>
#include <tuple>
#include <vector>

#include "ddg/ddg.hh"

namespace cvliw
{

/** Value of a live-in (an operand from before iteration 0). */
std::uint64_t liveInValue(std::uint64_t seed, NodeId semantic,
                          long long iter);

/**
 * One operand of an instruction instance: (producer semantic id,
 * distance, value). Sorted ascending, this is the canonical operand
 * order of the reference interpreter and the simulator.
 */
using Operand = std::tuple<NodeId, int, std::uint64_t>;

/**
 * Deterministic combining function shared by the reference
 * interpreter and the simulator: folds the operand values in order.
 * Operands must be pre-sorted into the canonical order.
 */
std::uint64_t combineValue(std::uint64_t seed, NodeId semantic,
                           OpClass cls,
                           const std::vector<Operand> &sorted_operands);

/**
 * Value of an operand-less source node (e.g. a load whose address is
 * loop-invariant) at iteration @p iter.
 */
std::uint64_t sourceValue(std::uint64_t seed, NodeId semantic,
                          OpClass cls, long long iter);

/**
 * Evaluates the original DDG for a number of iterations.
 */
class ReferenceInterpreter
{
  public:
    /**
     * @param original the untransformed loop body
     * @param iterations how many iterations to evaluate (>= 1)
     * @param seed live-in seed
     * @throws std::invalid_argument if @p iterations < 1
     * @throws InvalidInput if @p original's distance-0 edges close a
     *         cycle (see topoOrder)
     */
    ReferenceInterpreter(const Ddg &original, int iterations,
                         std::uint64_t seed = 1);

    /**
     * Records convert to a temporary Ddg, which the reference member
     * below would outlive; convert into a named Ddg first.
     */
    ReferenceInterpreter(const DdgRecords &, int, std::uint64_t = 1) =
        delete;

    /** Value of @p semantic (an original NodeId) at @p iter. */
    std::uint64_t value(NodeId semantic, long long iter) const;

    int iterations() const { return iterations_; }

  private:
    const Ddg &ddg_;
    int iterations_;
    std::uint64_t seed_;
    std::size_t slots_; //!< node slots of the original graph
    /** Value of (iter, node) at values_[iter * slots_ + node]. */
    std::vector<std::uint64_t> values_;
};

} // namespace cvliw

#endif // CVLIW_VLIW_REFERENCE_HH
