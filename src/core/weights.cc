#include "core/weights.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

constexpr auto numKinds =
    static_cast<std::size_t>(ResourceKind::NumResourceKinds);

/**
 * extra_ops(res, c, S) for every (res, c) in one pass over the
 * subgraph: entry [kind * clusters + c] counts the subgraph ops of
 * that kind added to cluster c.
 */
std::vector<int>
extraOpsMatrix(const Ddg &ddg, const MachineConfig &mach,
               const ReplicationSubgraph &sg, int clusters)
{
    std::vector<int> extra(numKinds * static_cast<std::size_t>(clusters),
                           0);
    for (const auto &[v, c] : sg.required) {
        const auto k = static_cast<std::size_t>(
            mach.resourceFor(ddg.node(v).cls));
        ++extra[k * static_cast<std::size_t>(clusters) +
                static_cast<std::size_t>(c)];
    }
    return extra;
}

} // namespace

Rational
subgraphWeight(const Ddg &ddg, const MachineConfig &mach,
               const Partition &part, int ii,
               const ReplicationSubgraph &sg,
               const SharerCounts &sharers,
               const std::vector<NodeId> &removable,
               const std::vector<std::vector<int>> *usage_in)
{
    const auto usage_local =
        usage_in ? std::vector<std::vector<int>>()
                 : part.usage(ddg, mach);
    const auto &usage = usage_in ? *usage_in : usage_local;
    const int num_clusters = mach.numClusters();
    const auto extra = extraOpsMatrix(ddg, mach, sg, num_clusters);
    Rational weight(0);

    for (const auto &[v, c] : sg.required) {
        const ResourceKind res = mach.resourceFor(ddg.node(v).cls);
        const int avail = mach.available(res);
        if (avail == 0) {
            // No unit of this kind: infeasible, represented by a huge
            // weight (feasibility is reported separately).
            weight += Rational(1000000);
            continue;
        }
        Rational term(usage[static_cast<std::size_t>(res)][c] +
                          extra[static_cast<std::size_t>(res) *
                                    static_cast<std::size_t>(num_clusters) +
                                static_cast<std::size_t>(c)],
                      static_cast<std::int64_t>(avail) * ii);

        // Sharing: a copy of v in c serves every subgraph that needs
        // it there (section 3.3, second formula).
        const int share = sharers.of(v, c);
        cv_assert(share >= 1, "subgraph not in its own pool");
        weight += term / Rational(share);
    }

    // Credit for instructions that can eventually be removed from
    // com's cluster: one slot of their resource per II each.
    for (NodeId u : removable) {
        const ResourceKind res = mach.resourceFor(ddg.node(u).cls);
        const int avail = mach.available(res);
        if (avail == 0)
            continue;
        weight -= Rational(1, static_cast<std::int64_t>(avail) * ii);
    }

    return weight;
}

bool
replicationFeasible(const Ddg &ddg, const MachineConfig &mach,
                    const Partition &part, int ii,
                    const ReplicationSubgraph &sg,
                    const std::vector<std::vector<int>> *usage_in)
{
    const auto usage_local =
        usage_in ? std::vector<std::vector<int>>()
                 : part.usage(ddg, mach);
    const auto &usage = usage_in ? *usage_in : usage_local;
    const int num_clusters = mach.numClusters();
    const auto extra = extraOpsMatrix(ddg, mach, sg, num_clusters);
    for (std::size_t k = 0; k < numKinds; ++k) {
        const auto kind = static_cast<ResourceKind>(k);
        if (kind == ResourceKind::Bus)
            continue;
        for (int c = 0; c < num_clusters; ++c) {
            const int x =
                extra[k * static_cast<std::size_t>(num_clusters) +
                      static_cast<std::size_t>(c)];
            if (x == 0)
                continue;
            const int avail = mach.available(kind);
            if (avail == 0 || usage[k][c] + x > avail * ii)
                return false;
        }
    }
    return true;
}

} // namespace cvliw
