/**
 * @file
 * Static analyses over a DDG. `analyzeLoop` computes everything the
 * compile loop reads about a graph on a machine: the topological
 * order of the intra-iteration (distance-0) subgraph, ASAP/ALAP
 * times, per-node height, the Tarjan SCCs and each
 * recurrence's RecMII. The MII, the partitioner's edge weights, the
 * pseudo-scheduler and the SMS order all read that one record: the
 * pipeline runs it once per graph and passes it to each pass.
 */

#ifndef CVLIW_DDG_ANALYSIS_HH
#define CVLIW_DDG_ANALYSIS_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "ddg/ddg.hh"

namespace cvliw
{

/**
 * Thrown for an input graph no pass can work on: today, a graph whose
 * distance-0 edges close a cycle (no iteration could ever start).
 * `analyzeLoop` and `topoOrder` throw it, so every pass that orders
 * or analyses a graph does, compile() first of all. A
 * `CompileService` batch turns it into a `Failed` job like any other
 * exception.
 */
class InvalidInput : public std::runtime_error
{
  public:
    explicit InvalidInput(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

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
    /** Kahn order of the live nodes over the distance-0 edges. */
    std::vector<NodeId> order;

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
 * @throws InvalidInput if those edges close a cycle
 */
std::vector<NodeId> topoOrder(const Ddg &ddg);

/**
 * Analyse @p ddg on @p mach.
 * @throws InvalidInput if the distance-0 edges close a cycle
 */
LoopAnalysis analyzeLoop(const Ddg &ddg, const MachineConfig &mach);

} // namespace cvliw

#endif // CVLIW_DDG_ANALYSIS_HH
