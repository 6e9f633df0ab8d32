/**
 * @file
 * Shared fixture: the worked example of the paper (Figure 3 /
 * section 3.3). Fourteen universal-FU instructions partitioned over
 * four clusters:
 *
 *   cluster 0 (paper's cluster 1): {L, M, N}
 *   cluster 1 (paper's cluster 2): {I, J, K}
 *   cluster 2 (paper's cluster 3): {A, B, C, D, E}
 *   cluster 3 (paper's cluster 4): {F, G, H}
 *
 * Dataflow (reconstructed to match every statement in the paper):
 *   A -> B, C, E;  B, C -> D;  D -> E, F;  E -> J, G;
 *   I -> J;  J -> K, L, H;  L -> M -> N;  F -> G -> H.
 *
 * Communications: D (to cluster 4), E (to clusters 2 and 4),
 * J (to clusters 1 and 4). With 4 universal FUs per cluster, II = 2
 * and one 1-cycle bus: extra_coms = 1 and
 *   weight(S_D) = 49/16,  weight(S_E) = 31/16,  weight(S_J) = 40/16,
 * so S_E is replicated. After the update (section 3.4):
 *   S_D = {D,B,C} into clusters 2 and 4, removable {D,B,C,A},
 *         weight 44/8;
 *   S_J = {J,I,E,A} (E,A into cluster 1 only), weight 42/8.
 */

#ifndef CVLIW_TESTS_PAPER_GRAPH_HH
#define CVLIW_TESTS_PAPER_GRAPH_HH

#include <cstddef>
#include <vector>

#include "core/subgraph.hh"
#include "ddg/builder.hh"
#include "machine/config.hh"
#include "partition/partition.hh"

namespace cvliw
{

/** The Figure-3 worked example. */
struct PaperExample
{
    DdgBuilder builder;
    Ddg ddg;           //!< the 14-node graph
    Partition part;    //!< the paper's 4-way partition
    MachineConfig mach;//!< 4 clusters x 4 universal FUs, 1 bus, 1 cycle
    int ii = 2;

    PaperExample() : mach(MachineConfig::universal(4, 4, 1, 1, 64))
    {
        auto &b = builder;
        b.op("A", OpClass::IntAlu);
        b.op("B", OpClass::IntAlu, {"A"});
        b.op("C", OpClass::IntAlu, {"A"});
        b.op("D", OpClass::IntAlu, {"B", "C"});
        b.op("E", OpClass::IntAlu, {"A", "D"});
        b.op("I", OpClass::IntAlu);
        b.op("J", OpClass::IntAlu, {"I", "E"});
        b.op("K", OpClass::IntAlu, {"J"});
        b.op("L", OpClass::IntAlu, {"J"});
        b.op("M", OpClass::IntAlu, {"L"});
        b.op("N", OpClass::IntAlu, {"M"});
        b.op("F", OpClass::IntAlu, {"D"});
        b.op("G", OpClass::IntAlu, {"E", "F"});
        b.op("H", OpClass::IntAlu, {"G", "J"});
        // Terminal values are used after the loop.
        for (const char *n : {"N", "K", "H"})
            b.liveOut(n);

        ddg = b.graph();
        part = Partition(4, ddg.numNodeSlots());
        assign({"L", "M", "N"}, 0);
        assign({"I", "J", "K"}, 1);
        assign({"A", "B", "C", "D", "E"}, 2);
        assign({"F", "G", "H"}, 3);
    }

    NodeId id(const char *name) const { return builder.id(name); }

    void
    assign(std::initializer_list<const char *> names, int cluster)
    {
        for (const char *n : names)
            part.assign(builder.id(n), cluster);
    }
};

/** The clusters @p sg replicates @p n into, ascending. */
inline std::vector<int>
clustersOf(const ReplicationSubgraph &sg, NodeId n)
{
    std::vector<int> clusters;
    for (const auto &[v, c] : sg.required) {
        if (v == n)
            clusters.push_back(c);
    }
    return clusters;
}

/** Number of distinct members of @p sg (its pairs are node-sorted). */
inline std::size_t
memberCount(const ReplicationSubgraph &sg)
{
    std::size_t members = 0;
    for (std::size_t i = 0; i < sg.required.size(); ++i)
        members += i == 0 || sg.required[i - 1].first != sg.required[i].first;
    return members;
}

} // namespace cvliw

#endif // CVLIW_TESTS_PAPER_GRAPH_HH
