/**
 * @file
 * Static analyses over a DDG. `analyzeLoop` computes everything the
 * compile loop reads about a graph on a machine: the topological
 * order of the intra-iteration (distance-0) subgraph, ASAP/ALAP
 * times, per-node height/depth, the Tarjan SCCs and each
 * recurrence's RecMII. The MII, the partitioner's edge weights, the
 * pseudo-scheduler and the SMS order all read that one record,
 * through `AnalysisCache`, its memo.
 */

#ifndef CVLIW_DDG_ANALYSIS_HH
#define CVLIW_DDG_ANALYSIS_HH

#include <cstdint>
#include <vector>

#include "ddg/ddg.hh"

namespace cvliw
{

/**
 * Per-node timing of one loop iteration, considering only distance-0
 * edges. Vectors are indexed by NodeId; entries for dead nodes are
 * meaningless.
 */
struct NodeTimes
{
    std::vector<int> asap;   //!< earliest start
    std::vector<int> alap;   //!< latest start preserving the length
    std::vector<int> height; //!< longest latency path to any sink
    std::vector<int> depth;  //!< longest latency path from any source
    int length = 0;          //!< critical-path schedule length (cycles)

    int mobility(NodeId n) const { return alap[n] - asap[n]; }
};

/**
 * A recurrence: a strongly connected component that closes a cycle,
 * i.e. one with more than one node or a self-loop.
 */
struct Recurrence
{
    std::vector<NodeId> members; //!< ascending NodeIds
    /** Max over its cycles of ceil(latency sum / distance sum). */
    int recMii = 1;
};

/** What the compile loop reads about one graph on one machine. */
struct LoopAnalysis
{
    /**
     * Kahn order of the live nodes over the distance-0 edges; short
     * of the live node count exactly when zeroDistanceCycle is set.
     */
    std::vector<NodeId> order;

    /**
     * The distance-0 edges close a cycle: no iteration could ever
     * start. compile() rejects such a graph with a typed error; the
     * other fields are meaningless for it.
     */
    bool zeroDistanceCycle = false;

    NodeTimes times;

    /**
     * Strongly connected component per NodeId over all edges,
     * loop-carried ones included; dead nodes get -1.
     */
    std::vector<int> scc;

    /** Every recurrence, ordered by first member. */
    std::vector<Recurrence> recurrences;

    /** RecMII: the largest recurrence's, or 1 without recurrences. */
    int recMii = 1;
};

/**
 * Topological order of the live nodes using only distance-0 edges.
 * Panics if the distance-0 subgraph has a cycle (an illegal DDG).
 */
std::vector<NodeId> topoOrder(const Ddg &ddg);

/** Analyse @p ddg on @p mach. */
LoopAnalysis analyzeLoop(const Ddg &ddg, const MachineConfig &mach);

/**
 * Single-slot memo of analyzeLoop, keyed on (Ddg::generation(),
 * MachineConfig::id()), so repeated calls on an unchanged graph (the
 * scheduler's retries, every refinement probe) cost two integer
 * compares, and a memo shared across machine configs never returns
 * a result computed for another latency table.
 *
 * A mutation or a config switch replaces the one slot, so give each
 * graph lineage its own memo: the pipeline keeps one for the input
 * graph (PseudoScratch) and one for the work graphs it schedules
 * (SchedulerCache, which reads the input's first: an unmodified
 * work graph is the input). It is intentionally not thread-safe; use
 * one instance per worker.
 */
class AnalysisCache
{
  public:
    /**
     * Cached analyzeLoop(ddg, mach). The reference is valid until the
     * next call with a different key.
     */
    const LoopAnalysis &get(const Ddg &ddg, const MachineConfig &mach);

    /**
     * The held analysis if it is @p ddg's on @p mach (same stamp and
     * config), else null; never runs one.
     */
    const LoopAnalysis *find(const Ddg &ddg,
                             const MachineConfig &mach) const
    {
        return gen_ == ddg.generation() && cfg_ == mach.id() ? &analysis_
                                                             : nullptr;
    }

    /**
     * Lifetime analyzeLoop runs (memo misses) of this memo: monotone,
     * never reset. The pipeline differences it into
     * CompileTelemetry::analysisRuns.
     */
    std::uint64_t runs() const { return runs_; }

  private:
    // Generation/config stamps start at 1, so 0 means "never
    // computed".
    std::uint64_t gen_ = 0;
    std::uint64_t cfg_ = 0;
    std::uint64_t runs_ = 0;
    LoopAnalysis analysis_;
};

} // namespace cvliw

#endif // CVLIW_DDG_ANALYSIS_HH
