#include "core/subgraph.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"

namespace cvliw
{

ReplicaIndex::ReplicaIndex(const Ddg &ddg, const Partition &part)
    : clusters_(part.numClusters())
{
    byKey_.assign(static_cast<std::size_t>(ddg.numNodeSlots()) *
                      static_cast<std::size_t>(clusters_),
                  invalidNode);
    for (NodeId n : ddg.nodes()) {
        addInstance(ddg.node(n).semanticId, part.clusterOf(n), n);
    }
}

std::size_t
ReplicaIndex::slot(NodeId semantic, int cluster) const
{
    cv_assert(cluster >= 0 && cluster < clusters_, "bad cluster ",
              cluster);
    const std::size_t i =
        static_cast<std::size_t>(semantic) *
            static_cast<std::size_t>(clusters_) +
        static_cast<std::size_t>(cluster);
    cv_assert(semantic >= 0 && i < byKey_.size(),
              "semantic id ", semantic,
              " outside the graph the index was built for");
    return i;
}

bool
ReplicationSubgraph::contains(NodeId n) const
{
    const auto it =
        std::lower_bound(required.begin(), required.end(),
                         std::make_pair(n, std::numeric_limits<int>::min()));
    return it != required.end() && it->first == n;
}

ReplicationSubgraph
findReplicationSubgraph(const Ddg &ddg, const Partition &part,
                        NodeId com,
                        const std::vector<bool> &communicated,
                        const ReplicaIndex &index,
                        const std::vector<NodeId> &extra_seeds,
                        const std::vector<int> &target_override,
                        SubgraphScratch *scratch)
{
    SubgraphScratch local;
    SubgraphScratch &s = scratch ? *scratch : local;

    ReplicationSubgraph sg;
    sg.com = com;
    const NodeId com_sem = ddg.node(com).semanticId;

    // Target clusters: every remote cluster with a consumer of com.
    if (!target_override.empty()) {
        sg.targetClusters = target_override;
    } else {
        const int home = part.clusterOf(com);
        for (NodeId w : ddg.flowSuccs(com)) {
            const int c = part.clusterOf(w);
            if (c != home)
                sg.targetClusters.push_back(c);
        }
        std::sort(sg.targetClusters.begin(), sg.targetClusters.end());
        sg.targetClusters.erase(std::unique(sg.targetClusters.begin(),
                                            sg.targetClusters.end()),
                                sg.targetClusters.end());
    }
    cv_assert(!sg.targetClusters.empty(),
              "replication subgraph for a non-communication");

    // Per target cluster: walk parents (Figure 4). A parent is
    // skipped when its value is communicated (available via the bus
    // broadcast) or when an instance already lives in the target.
    // The flag arrays and worklist live in the scratch: reset keeps
    // their capacity, so steady-state walks allocate nothing.
    for (int t : sg.targetClusters) {
        std::vector<NodeId> &worklist = s.worklist_;
        std::vector<char> &visited = s.visited_;
        std::vector<char> &required_here = s.requiredHere_;
        worklist.clear();
        visited.assign(ddg.numNodeSlots(), 0);
        required_here.assign(ddg.numNodeSlots(), 0);

        auto seed = [&](NodeId n) {
            if (visited[n])
                return;
            visited[n] = 1;
            if (!index.hasInstance(ddg.node(n).semanticId, t)) {
                sg.required.emplace_back(n, t);
                required_here[n] = 1;
            }
            worklist.push_back(n);
        };
        seed(com);
        for (NodeId n : extra_seeds) {
            const DdgNode &sn = ddg.node(n);
            if (sn.cls == OpClass::Store)
                continue; // stores are never replicated
            if (communicated[n] && sn.semanticId != com_sem)
                continue; // has its own subgraph
            seed(n);
        }

        while (!worklist.empty()) {
            const NodeId v = worklist.back();
            worklist.pop_back();
            // Only nodes that actually need a new replica pull their
            // parents in; existing instances already have operands.
            if (!required_here[v])
                continue;
            for (EdgeId eid : ddg.inEdgesRaw(v)) {
                const DdgEdge &pe = ddg.edge(eid);
                if (!pe.alive || pe.kind != EdgeKind::RegFlow)
                    continue;
                const NodeId p = pe.src;
                if (visited[p])
                    continue;
                if (communicated[p] &&
                    ddg.node(p).semanticId != com_sem) {
                    continue; // broadcast makes it available
                }
                visited[p] = 1;
                cv_assert(ddg.node(p).cls != OpClass::Store,
                          "store as flow producer");
                if (!index.hasInstance(ddg.node(p).semanticId, t)) {
                    sg.required.emplace_back(p, t);
                    required_here[p] = 1;
                }
                worklist.push_back(p);
            }
        }
    }

    // The walk visits a node at most once per target cluster, so the
    // pairs are distinct.
    std::sort(sg.required.begin(), sg.required.end());
    return sg;
}

void
SharerCounts::count(const std::vector<ReplicationSubgraph> &pool,
                    int node_slots, int clusters)
{
    clusters_ = static_cast<std::size_t>(clusters);
    counts_.assign(static_cast<std::size_t>(node_slots) * clusters_, 0);
    for (const ReplicationSubgraph &sg : pool) {
        for (const auto &[n, c] : sg.required)
            ++counts_[static_cast<std::size_t>(n) * clusters_ +
                      static_cast<std::size_t>(c)];
    }
}

} // namespace cvliw
