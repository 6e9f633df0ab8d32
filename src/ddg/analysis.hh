/**
 * @file
 * Static analyses over a DDG: topological order of the intra-iteration
 * (distance-0) subgraph, ASAP/ALAP times, critical-path length,
 * per-node height/depth (used by the SMS ordering and the partitioner
 * edge weighting), Tarjan SCCs and positive-cycle detection (used by
 * RecMII).
 *
 * `AnalysisCache` memoizes the pure analyses keyed on the graph's
 * generation stamp (see Ddg::generation()): the pipeline retries
 * partition -> replicate -> schedule at every II, and most retries
 * re-analyse a graph that has not changed since the last attempt.
 * Machine-dependent results (times) additionally carry the config's
 * identity stamp (MachineConfig::id()), so one cache instance may be
 * shared across machine configs without ever reusing stale
 * latency-dependent results.
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
 * Topological order of the live nodes using only distance-0 edges.
 * Panics if the distance-0 subgraph has a cycle (an illegal DDG).
 */
std::vector<NodeId> topoOrder(const Ddg &ddg);

/**
 * True when the distance-0 subgraph has a cycle, the one graph shape
 * topoOrder panics on. compile() checks it at entry, so bad input
 * fails with a typed error instead.
 */
bool hasZeroDistanceCycle(const Ddg &ddg);

/** Compute ASAP/ALAP/height/depth and the critical-path length. */
NodeTimes computeTimes(const Ddg &ddg, const MachineConfig &mach);

/**
 * Strongly connected components over all edges (including
 * loop-carried ones).
 * @return component index per NodeId (dead nodes get -1); components
 *         are numbered in reverse topological order of the condensed
 *         graph (Tarjan numbering)
 */
std::vector<int> stronglyConnectedComponents(const Ddg &ddg);

/**
 * True when the graph contains a cycle whose total latency exceeds
 * II times its total distance, i.e. when II is below the recurrence
 * bound.
 */
bool hasPositiveCycle(const Ddg &ddg, const MachineConfig &mach, int ii);

/**
 * Maximum over elementary cycles of ceil(sum latency / sum distance);
 * 1 when the graph has no recurrences. This is the RecMII term of the
 * minimum initiation interval.
 */
int recurrenceMii(const Ddg &ddg, const MachineConfig &mach);

/**
 * Longest total latency of any single recurrence through @p n, or 0
 * when @p n is not on a recurrence. Used by the partitioner's edge
 * weighting.
 */
std::vector<bool> nodesOnRecurrences(const Ddg &ddg);

/**
 * Generation-keyed memo for the pure DDG analyses. Each accessor
 * recomputes only when the graph's generation stamp (plus, for
 * machine-dependent analyses, the config's identity stamp) differs
 * from the one the cached result was computed at, so repeated calls
 * on an unchanged graph (the scheduler's placement loop, II retries
 * without structural edits) cost a couple of integer compares.
 *
 * The cache is single-slot per analysis: a mutation invalidates
 * everything computed before it. It is intentionally not thread-safe;
 * use one instance per worker (the suite runner compiles each loop on
 * one thread).
 */
class AnalysisCache
{
  public:
    /** Cached topoOrder(ddg). */
    const std::vector<NodeId> &topo(const Ddg &ddg);

    /** Cached computeTimes(ddg, mach). */
    const NodeTimes &times(const Ddg &ddg, const MachineConfig &mach);

    /** Cached stronglyConnectedComponents(ddg). */
    const std::vector<int> &scc(const Ddg &ddg);

  private:
    // Generation/config stamps start at 1, so 0 means "never
    // computed".
    std::uint64_t topoGen_ = 0;
    std::uint64_t timesGen_ = 0;
    std::uint64_t timesCfg_ = 0;
    std::uint64_t sccGen_ = 0;
    std::vector<NodeId> topo_;
    NodeTimes times_;
    std::vector<int> scc_;
};

/**
 * Flat relaxation-ready copy of the live edges: everything the
 * Bellman-Ford recurrence probe needs, gathered once so the O(V*E)
 * relaxation never touches the graph (edgeLatency() per edge per pass
 * is the difference between RecMII being cheap and dominating the
 * compile).
 */
struct FlatEdge
{
    NodeId src;
    NodeId dst;
    int latency;
    int distance;
};

/** Gather the live edges of @p ddg with latencies resolved. */
std::vector<FlatEdge> flattenEdges(const Ddg &ddg,
                                   const MachineConfig &mach);

/**
 * hasPositiveCycle over a pre-flattened edge list. @p dist is scratch
 * storage of at least @p slots entries, reused across calls (the
 * RecMII binary search probes many IIs over the same edges).
 */
bool hasPositiveCycleFlat(const std::vector<FlatEdge> &edges,
                          int num_nodes, int slots, int ii,
                          std::vector<long long> &dist);

} // namespace cvliw

#endif // CVLIW_DDG_ANALYSIS_HH
