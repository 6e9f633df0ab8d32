#include "partition/partition.hh"

#include "support/logging.hh"

namespace cvliw
{

Partition::Partition(int num_clusters, int num_node_slots)
    : numClusters_(num_clusters), clusterOf_(num_node_slots, -1)
{
    cv_assert(num_clusters >= 1 &&
                  num_clusters <= MachineConfig::maxUnits,
              "bad cluster count ", num_clusters);
}

int
Partition::clusterOf(NodeId n) const
{
    cv_assert(n >= 0 && n < static_cast<NodeId>(clusterOf_.size()),
              "node ", n, " outside partition");
    const int c = clusterOf_[n];
    cv_assert(c >= 0, "node ", n, " not assigned to a cluster");
    return c;
}

bool
Partition::isAssigned(NodeId n) const
{
    return n >= 0 && n < static_cast<NodeId>(clusterOf_.size()) &&
           clusterOf_[n] >= 0;
}

void
Partition::assign(NodeId n, int cluster)
{
    cv_assert(n >= 0, "bad node id");
    cv_assert(cluster >= 0 && cluster < numClusters_, "bad cluster ",
              cluster);
    if (n >= static_cast<NodeId>(clusterOf_.size()))
        clusterOf_.resize(n + 1, -1);
    clusterOf_[n] = static_cast<ClusterId>(cluster);
}

std::vector<std::vector<int>>
Partition::usage(const Ddg &ddg, const MachineConfig &mach) const
{
    constexpr auto num_kinds =
        static_cast<std::size_t>(ResourceKind::NumResourceKinds);
    std::vector<std::vector<int>> u(
        num_kinds, std::vector<int>(numClusters_, 0));
    for (NodeId n : ddg.nodes()) {
        const OpClass cls = ddg.node(n).cls;
        if (cls == OpClass::Copy)
            continue;
        const auto kind =
            static_cast<std::size_t>(mach.resourceFor(cls));
        ++u[kind][clusterOf(n)];
    }
    return u;
}

} // namespace cvliw
