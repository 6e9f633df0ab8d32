/**
 * @file
 * Pseudo-scheduler: a fast estimate of how well a partition will
 * schedule at a given II, used as the comparison metric during
 * partition refinement (section 2.3.1, following Aleta et al.,
 * PACT'02). It does not build a real schedule; it combines
 *  - the partition-induced II (per-cluster resource pressure and bus
 *    pressure),
 *  - an estimated schedule length where every cut register-flow edge
 *    pays the bus latency, and
 *  - the number of communications.
 *
 * ## Scratch state and delta evaluation
 *
 * Refinement evaluates the metric once per (node, cluster) candidate
 * move - hundreds of evaluations against one graph - so the heavy
 * state lives in a reusable `PseudoScratch`:
 *
 *  - `pseudoSchedule(..., scratch)` is the from-scratch oracle. It
 *    recomputes everything for an arbitrary assignment, reusing the
 *    scratch's buffers (no per-call allocation).
 *  - `bind()` / `probeMove()` / `commitMove()` form the incremental
 *    engine: after `bind()`, the scratch owns the current assignment
 *    plus live per-(kind, cluster) resource counts and per-producer
 *    communication counts, and a single-node move is evaluated as a
 *    *delta* touching only the moved node's incident edges.
 *
 * Both read the graph's `LoopAnalysis` (its distance-0 order), which
 * the caller computes once and passes in.
 *
 * ### Delta-evaluation invariants
 *
 * 1. A `probeMove()` that returns true yields a `PseudoResult`
 *    bit-identical to `pseudoSchedule()` on the moved assignment:
 *    both paths share the same ASAP / register-sweep kernels, and
 *    the incremental communication count always equals
 *    `findCommunications().count()`.
 * 2. The expensive O(V+E) parts (the ASAP length estimate and the
 *    register-width sweep) run only when the cheap lexicographic
 *    prefix of `PseudoResult::better` - partition-induced II, then
 *    the resource-overflow lower bound of the deficit - does not
 *    already decide the comparison. When that lower bound ties the
 *    best deficit, the deficit can only tie or lose, so a move that
 *    loses on (comms, length, imbalance) is rejected before the
 *    register sweep; the sweep is also skipped when an
 *    assignment-independent upper bound proves no cluster can exceed
 *    its register file.
 * 3. `probeMove()` leaves the scratch state exactly as it found it;
 *    only `commitMove()` (and `bind()`) change the bound assignment.
 */

#ifndef CVLIW_SCHED_PSEUDO_HH
#define CVLIW_SCHED_PSEUDO_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "ddg/analysis.hh"
#include "ddg/ddg.hh"
#include "partition/partition.hh"

namespace cvliw
{

/** Result of pseudo-scheduling a partition at a given II. */
struct PseudoResult
{
    int iiPart = 0;   //!< min II this partition can possibly achieve
    int overflow = 0; //!< resource/bus slot deficit at the probed II
    int regOverflow = 0; //!< estimated register-width deficit
    int length = 0;   //!< estimated schedule length (cut edges pay bus)
    int comms = 0;    //!< number of communications
    int imbalance = 0;//!< max-min per-cluster op count spread

    /**
     * Strict "is this partition better" ordering used by refinement:
     * lexicographic on (iiPart, overflow + regOverflow, comms,
     * length, imbalance).
     */
    bool better(const PseudoResult &o) const;
};

/**
 * Reusable state for pseudo-schedule evaluations: the usage /
 * ops-per-cluster / events / est buffers of the from-scratch path,
 * and the incremental move-evaluation state of the refinement hot
 * path (see the file comment). One instance serves one thread; the
 * pipeline threads one through every refinement and every II retry
 * so that the buffers are allocated once. Every bind() re-arms all
 * of it, so nothing a previous graph left behind is ever read.
 */
class PseudoScratch
{
  public:
    /**
     * Bind the incremental engine to (@p ddg, @p mach, @p ii) with
     * the starting assignment @p cluster_of, and return the full
     * pseudo-schedule result of that assignment (computed by the
     * from-scratch oracle). @p analysis is analyzeLoop(ddg, mach);
     * like @p ddg and @p mach, it must stay alive and unchanged
     * until the next bind(), since the probes read its order.
     */
    PseudoResult bind(const Ddg &ddg, const MachineConfig &mach,
                      const LoopAnalysis &analysis,
                      const std::vector<ClusterId> &cluster_of, int ii);

    /**
     * Records convert to a temporary Ddg, which the bound graph
     * pointer below would outlive; convert into a named Ddg first.
     */
    PseudoResult bind(const DdgRecords &, const MachineConfig &,
                      const LoopAnalysis &,
                      const std::vector<ClusterId> &, int) = delete;

    /** Current assignment (valid after bind(), kept by commitMove()). */
    const std::vector<ClusterId> &assignment() const { return assign_; }

    /**
     * Does moving @p n to cluster @p c beat @p best? On true, @p out
     * holds the exact result of the moved assignment. The scratch
     * state is left unchanged either way. @p n must be a live
     * non-copy node of the bound graph.
     */
    bool probeMove(NodeId n, int c, const PseudoResult &best,
                   PseudoResult &out);

    /** Commit the move of @p n to cluster @p c. */
    void commitMove(NodeId n, int c);

    /** Incremental communication count of the bound assignment. */
    int commCount() const { return commCount_; }

    /**
     * Lifetime probeMove() / commitMove() call counts: monotone over
     * the scratch's life, never reset by bind(). The pipeline
     * differences them around each compile to fill
     * CompileTelemetry::refineProbes / refineCommits - deterministic
     * for a given (graph, machine, options) because refinement's
     * control flow is.
     */
    std::uint64_t probeCount() const { return probes_; }
    std::uint64_t commitCount() const { return commits_; }

    /**
     * Lifetime runs of the two O(V+E) kernels on this scratch, by
     * probes and by from-scratch evaluations alike: the ASAP length
     * estimate and the register-width sweep. Monotone and
     * deterministic like probeCount(); the pipeline differences them
     * into CompileTelemetry::asapRuns / widthSweeps.
     */
    std::uint64_t asapRunCount() const { return asapRuns_; }
    std::uint64_t widthSweepCount() const { return widthSweeps_; }

  private:
    friend PseudoResult pseudoSchedule(const Ddg &,
                                       const MachineConfig &,
                                       const LoopAnalysis &,
                                       const std::vector<ClusterId> &,
                                       int, PseudoScratch &);

    /** Move @p n to @p to, updating every incremental structure. */
    void applyMove(NodeId n, int to);

    /**
     * Evaluate the currently-applied assignment against @p best,
     * skipping the expensive kernels whenever the comparison is
     * already decided. On true, @p out is the complete result.
     */
    bool evalAgainst(const PseudoResult &best, PseudoResult &out);

    const Ddg *ddg_ = nullptr;
    const MachineConfig *mach_ = nullptr;
    /** The bound graph's distance-0 order (its analysis owns it). */
    const std::vector<NodeId> *order_ = nullptr;
    int ii_ = 0;
    int clusters_ = 0;
    bool widthCanOverflow_ = true;

    // Incremental state (valid between bind() and the next bind()).
    std::vector<ClusterId> assign_;
    std::vector<int> usage_; //!< [kind * clusters_ + c]
    std::vector<int> ops_;   //!< per cluster
    /** Per (producer, cluster): live non-copy flow-consumer edges. */
    std::vector<int> consCnt_;
    /** Per producer: clusters != home holding >=1 consumer. */
    std::vector<int> remoteCnt_;
    /** Per node: non-copy value producer (comm-eligible). */
    std::vector<char> tracked_;
    int commCount_ = 0;

    std::uint64_t probes_ = 0;
    std::uint64_t commits_ = 0;
    std::uint64_t asapRuns_ = 0;
    std::uint64_t widthSweeps_ = 0;

    // Buffers of the from-scratch path and the expensive kernels.
    std::vector<int> usageFull_;
    std::vector<int> opsFull_;
    std::vector<int> est_;
    std::vector<std::vector<std::pair<int, int>>> events_;
    std::vector<int> carried_;
    std::vector<int> last_;
    std::vector<int> maxDist_;
    std::vector<int> width_;
};

/**
 * Evaluate @p cluster_of at initiation interval @p ii from scratch.
 * This is the oracle the incremental engine is checked against; it
 * performs no per-call allocation beyond what @p scratch retains.
 * Calling it does not disturb the scratch's bound incremental state.
 *
 * @param ddg loop body (no copy nodes yet)
 * @param mach target machine
 * @param analysis analyzeLoop(ddg, mach)
 * @param cluster_of cluster per NodeId
 * @param ii probed initiation interval
 * @param scratch buffers, reused across calls - refinement probes
 *        hundreds of assignments against one graph
 */
PseudoResult pseudoSchedule(const Ddg &ddg, const MachineConfig &mach,
                            const LoopAnalysis &analysis,
                            const std::vector<ClusterId> &cluster_of,
                            int ii, PseudoScratch &scratch);

} // namespace cvliw

#endif // CVLIW_SCHED_PSEUDO_HH
