/**
 * @file
 * The replication heuristic (section 3.3/3.4): while the partition
 * implies more communications than the buses can carry at the
 * current II (extra_coms > 0), repeatedly pick the feasible
 * replication subgraph with the lowest weight, replicate it, remove
 * instructions that became dead, and recompute the remaining
 * subgraphs and weights. Every round rebuilds every subgraph and
 * weight from the current graph (section 3.4); only the
 * communication set is patched rather than rescanned. Dead code is
 * swept globally on the first round and in MacroNode mode, and
 * within the chosen producer's ancestor cone otherwise. Exactly
 * extra_coms communications need to be removed — no
 * over-replication is possible.
 */

#ifndef CVLIW_CORE_REPLICATOR_HH
#define CVLIW_CORE_REPLICATOR_HH

#include <array>

#include "core/subgraph.hh"
#include "partition/coarsen.hh"

namespace cvliw
{

/** Statistics of one replication run (one II attempt). */
struct ReplicationStats
{
    int comsInitial = 0;  //!< communications before replication
    int comsRemoved = 0;  //!< communications eliminated
    int replicasAdded = 0;//!< replica instances created
    /** Replicas by Figure-10 category: mem / int / fp. */
    std::array<int, 3> replicasByCat{};
    int instructionsRemoved = 0; //!< originals deleted as dead code
    int roundsConsidered = 0;    //!< selection rounds executed
};

/** Which subgraphs the selector may choose. */
enum class ReplicationMode : std::uint8_t
{
    MinWeight, //!< section 3: minimum-weight replication subgraph
    MacroNode  //!< section 5.2: replicate com's coarsening macro-node
};

/**
 * Reduce communications of (@p ddg, @p part) until they fit the bus
 * capacity at @p ii.
 *
 * @param stats optional statistics sink
 * @param mode subgraph selection mode
 * @param hier coarsening hierarchy (required for MacroNode mode)
 * @param scratch reusable subgraph-walk buffers; the pipeline passes
 *        its per-worker scratch so II retries (and, via
 *        CompileCaches, whole compiles) stop allocating per walk.
 *        Null uses a pass-local scratch.
 * @return true when extra_coms reached zero; false when no feasible
 *         replication remains (the caller must raise the II)
 */
bool reduceCommunications(Ddg &ddg, Partition &part,
                          const MachineConfig &mach, int ii,
                          ReplicationStats *stats = nullptr,
                          ReplicationMode mode =
                              ReplicationMode::MinWeight,
                          const CoarseningHierarchy *hier = nullptr,
                          SubgraphScratch *scratch = nullptr);

/**
 * Replicate the value of @p producer into @p cluster without removing
 * its communication (section 5.1: replication that targets the
 * schedule length instead of the II). Consumers of @p producer in
 * @p cluster are rewired to the local replica; consumers elsewhere
 * keep using the bus.
 *
 * @param scratch reusable subgraph-walk buffers (null = call-local)
 * @return true when the replication was applied
 */
bool replicateIntoCluster(Ddg &ddg, Partition &part,
                          const MachineConfig &mach, int ii,
                          NodeId producer, int cluster,
                          ReplicationStats *stats = nullptr,
                          SubgraphScratch *scratch = nullptr);

/**
 * Global dead-code sweep: every value-producing instruction that
 * cannot reach a store or a live-out value through register-flow
 * edges is deleted (this also collects dead recurrence cycles, which
 * keep each other alive under a local criterion). Updates @p index.
 * @param touched when non-null, receives the removed nodes and their
 *        flow producers (whose communication status may change)
 * @return number of instructions removed
 */
int removeDeadCode(Ddg &ddg, const Partition &part,
                   ReplicaIndex &index,
                   std::vector<NodeId> *touched = nullptr);

} // namespace cvliw

#endif // CVLIW_CORE_REPLICATOR_HH
