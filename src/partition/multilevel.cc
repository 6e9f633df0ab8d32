#include "partition/multilevel.hh"

#include <algorithm>
#include <tuple>

#include "partition/edge_weights.hh"
#include "partition/refine.hh"
#include "support/logging.hh"

namespace cvliw
{

PartitionResult
multilevelPartition(const Ddg &ddg, const MachineConfig &mach, int ii,
                    PseudoScratch *scratch)
{
    PartitionResult result{
        Partition(mach.numClusters(), ddg.numNodeSlots()),
        CoarseningHierarchy()};

    if (mach.numClusters() == 1) {
        for (NodeId n : ddg.nodes())
            result.partition.assign(n, 0);
        return result;
    }

    PseudoScratch local;
    PseudoScratch &s = scratch ? *scratch : local;
    const auto weights =
        computeEdgeWeights(ddg, mach, s.analyses().get(ddg, mach));
    result.hierarchy = coarsen(ddg, mach, ii, weights);

    // Project: bin-pack the final macro-nodes into clusters. Heavier
    // macros first; each goes to the cluster that minimizes the
    // resource overflow, then maximizes the connection weight to
    // already-placed macros (fewer communications), then balances
    // the op count.
    const int last = result.hierarchy.numLevels() - 1;
    const int groups = result.hierarchy.numGroups(last);
    const int clusters = mach.numClusters();
    constexpr auto num_kinds =
        static_cast<std::size_t>(ResourceKind::NumResourceKinds);

    // Per-group usage and pairwise connection weights.
    std::vector<std::vector<int>> gusage(
        groups, std::vector<int>(num_kinds, 0));
    std::vector<int> gops(groups, 0);
    for (NodeId n : ddg.nodes()) {
        const int g = result.hierarchy.groupOf(n, last);
        cv_assert(g >= 0, "node ", n, " missing from coarse level");
        const OpClass cls = ddg.node(n).cls;
        if (cls != OpClass::Copy) {
            ++gusage[g][static_cast<std::size_t>(
                mach.resourceFor(cls))];
            ++gops[g];
        }
    }
    std::vector<std::vector<long long>> gconn(
        groups, std::vector<long long>(groups, 0));
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        const long long w = eid < static_cast<EdgeId>(weights.size())
                                ? weights[eid] : 0;
        const int ga = result.hierarchy.groupOf(e.src, last);
        const int gb = result.hierarchy.groupOf(e.dst, last);
        if (ga != gb && w > 0) {
            gconn[ga][gb] += w;
            gconn[gb][ga] += w;
        }
    }

    std::vector<int> order(groups);
    for (int g = 0; g < groups; ++g)
        order[g] = g;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return std::tie(gops[b], a) < std::tie(gops[a], b);
    });

    std::vector<std::vector<int>> cusage(
        clusters, std::vector<int>(num_kinds, 0));
    std::vector<int> cops(clusters, 0);
    std::vector<int> cluster_of_group(groups, -1);
    for (const int g : order) {
        int best_c = 0;
        std::tuple<long long, long long, int> best_key{};
        for (int c = 0; c < clusters; ++c) {
            long long overflow = 0;
            for (std::size_t k = 0; k < num_kinds; ++k) {
                const auto kind = static_cast<ResourceKind>(k);
                if (kind == ResourceKind::Bus)
                    continue;
                const int need = cusage[c][k] + gusage[g][k];
                overflow += std::max(
                    0, need - mach.available(kind) * ii);
            }
            long long conn = 0;
            for (int h = 0; h < groups; ++h) {
                if (cluster_of_group[h] == c)
                    conn += gconn[g][h];
            }
            const std::tuple<long long, long long, int> key(
                overflow, -conn, cops[c]);
            if (c == 0 || key < best_key) {
                best_key = key;
                best_c = c;
            }
        }
        cluster_of_group[g] = best_c;
        for (std::size_t k = 0; k < num_kinds; ++k)
            cusage[best_c][k] += gusage[g][k];
        cops[best_c] += gops[g];
    }

    for (NodeId n : ddg.nodes()) {
        const int g = result.hierarchy.groupOf(n, last);
        result.partition.assign(n, cluster_of_group[g]);
    }

    result.partition =
        refinePartition(ddg, mach, result.partition, ii, &s);
    return result;
}

} // namespace cvliw
