/**
 * @file
 * Synthetic loop generator. Builds DDGs with the canonical structure
 * of SPECfp95 inner loops: integer address arithmetic at the top
 * (fed by induction variables), loads below it, floating-point
 * computation chains in the middle (with cross-chain sharing and
 * optional reductions) and stores at the bottom. The paper's
 * observation that replicated instructions are mostly integer ops
 * ("usually, in the upper levels of the DDG there are integer
 * instructions") emerges directly from this shape.
 *
 * ## How a loop is assembled
 *
 * The generator never grows a `Ddg` node by node. It appends each
 * loop's `DdgNode`/`DdgEdge` records to the vectors of a
 * `LoopScratch`, in exactly the order and with exactly the fields
 * `addNode`/`addEdge` would give them, and then makes the loop's
 * records with one validated `DdgRecords::fromSlots` call:
 * exactly-sized arrays, the checks `addEdge` makes (endpoints in
 * range, distance >= 0, flow edges only from value producers), and no
 * adjacency. A loop rests as those records (see "Graphs at rest" in
 * ddg/ddg.hh): nothing traverses it between compiles, and each
 * compile converts it to a `Ddg` once, so a held suite pays no
 * adjacency. Its two questions about the half-built graph are
 * answered from scratch arrays: a register-flow out-degree per node
 * (which sinks are live-out) and, per dataflow component, a
 * register-flow in-edge CSR in edge-id order (the ancestor loads a
 * store's memory dependence may target). `buildSuite` and
 * `buildBenchmark` reuse one scratch for all their loops, so its
 * buffers stop growing after the first few.
 */

#ifndef CVLIW_WORKLOADS_GENERATOR_HH
#define CVLIW_WORKLOADS_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ddg/ddg.hh"
#include "support/rng.hh"
#include "workloads/profiles.hh"

namespace cvliw
{

/** One generated loop. */
struct Loop
{
    std::string benchmark; //!< owning benchmark name
    int index = 0;         //!< loop number within the benchmark
    /** Loop body, at rest: records that each compile converts. */
    DdgRecords ddg;
    LoopProfile profile;   //!< dynamic execution profile

    /** "benchmark#index". */
    std::string name() const;
};

/**
 * The buffers generateLoop assembles a loop in (see "How a loop is
 * assembled"). Callers only create one and hand it to generateLoop;
 * the members are the generator's. One scratch serves any number of
 * loops, one at a time, and keeps its buffers' capacity between them.
 */
struct LoopScratch
{
    // The loop's records, in creation order.
    std::vector<DdgNode> nodes;
    std::vector<DdgEdge> edges;
    // Register-flow out-degree per node.
    std::vector<std::uint32_t> flowOut;
    // One component's register-flow in-edge CSR, its search state and
    // its work lists.
    std::vector<std::uint32_t> inStart;
    std::vector<NodeId> inSrc;
    std::vector<char> seen;
    std::vector<NodeId> intNodes, loads, chainTails, stores, anc, work;
    std::vector<int> chainLen;
    std::vector<NodeId> chainStart;
};

/**
 * Generate one loop from @p profile.
 * @param rng deterministic generator (the caller controls seeding)
 * @param index loop number, stored in the result
 */
Loop generateLoop(const BenchmarkProfile &profile, Rng &rng,
                  int index);

/** As above, assembling the loop in @p scratch. */
Loop generateLoop(const BenchmarkProfile &profile, Rng &rng, int index,
                  LoopScratch &scratch);

} // namespace cvliw

#endif // CVLIW_WORKLOADS_GENERATOR_HH
