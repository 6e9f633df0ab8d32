#include "partition/coarsen.hh"

#include <algorithm>
#include <array>
#include <tuple>

#include "partition/matching.hh"
#include "support/logging.hh"

namespace cvliw
{

int
CoarseningHierarchy::numGroups(int level) const
{
    cv_assert(level >= 0 && level < numLevels(), "bad level ", level);
    return numGroups_[level];
}

int
CoarseningHierarchy::groupOf(NodeId n, int level) const
{
    cv_assert(level >= 0 && level < numLevels(), "bad level ", level);
    const auto &map = groupOf_[level];
    if (n < 0 || n >= static_cast<NodeId>(map.size()))
        return -1;
    return map[n];
}

std::vector<NodeId>
CoarseningHierarchy::membersOf(NodeId n, int level) const
{
    const int g = groupOf(n, level);
    cv_assert(g >= 0, "node ", n, " not in hierarchy");
    return groupMembers(g, level);
}

std::vector<NodeId>
CoarseningHierarchy::groupMembers(int group, int level) const
{
    cv_assert(level >= 0 && level < numLevels(), "bad level ", level);
    std::vector<NodeId> members;
    const auto &map = groupOf_[level];
    for (NodeId n = 0; n < static_cast<NodeId>(map.size()); ++n) {
        if (map[n] == group)
            members.push_back(n);
    }
    return members;
}

void
CoarseningHierarchy::addLevel(std::vector<int> group_of, int num_groups)
{
    groupOf_.push_back(std::move(group_of));
    numGroups_.push_back(num_groups);
}

namespace
{

constexpr auto numKinds =
    static_cast<std::size_t>(ResourceKind::NumResourceKinds);

using Usage = std::array<int, numKinds>;

/** Per-kind capacity check for contracting two coarse vertices. */
bool
mergeFits(const Usage &a, const Usage &b, const MachineConfig &mach,
          int ii)
{
    for (std::size_t k = 0; k < numKinds; ++k) {
        const auto kind = static_cast<ResourceKind>(k);
        if (kind == ResourceKind::Bus)
            continue;
        const int need = a[k] + b[k];
        if (need == 0)
            continue;
        if (need > mach.available(kind) * ii)
            return false;
    }
    return true;
}

/**
 * Sort @p edges by (a, b) and merge parallel ones into one edge that
 * carries their summed weight: the candidate list of one level.
 */
void
mergeParallel(std::vector<MatchEdge> &edges)
{
    std::sort(edges.begin(), edges.end(),
              [](const MatchEdge &x, const MatchEdge &y) {
                  return std::tie(x.a, x.b) < std::tie(y.a, y.b);
              });
    std::size_t kept = 0;
    for (const MatchEdge &e : edges) {
        if (kept > 0 && edges[kept - 1].a == e.a &&
            edges[kept - 1].b == e.b) {
            edges[kept - 1].weight += e.weight;
        } else {
            edges[kept++] = e;
        }
    }
    edges.resize(kept);
}

} // namespace

CoarseningHierarchy
coarsen(const Ddg &ddg, const MachineConfig &mach, int ii,
        const std::vector<long long> &edge_weights)
{
    CoarseningHierarchy hier;
    const int clusters = mach.numClusters();
    const int slots = ddg.numNodeSlots();

    // Level 0: live nodes get dense vertex ids.
    std::vector<int> vertex_of(slots, -1);
    int num_vertices = 0;
    for (NodeId n : ddg.nodes())
        vertex_of[n] = num_vertices++;
    hier.addLevel(vertex_of, num_vertices);

    // Per-vertex resource usage.
    std::vector<Usage> usage(num_vertices, Usage{});
    for (NodeId n : ddg.nodes()) {
        const OpClass cls = ddg.node(n).cls;
        if (cls != OpClass::Copy) {
            ++usage[vertex_of[n]]
                   [static_cast<std::size_t>(mach.resourceFor(cls))];
        }
    }

    // Accumulated edge weights between coarse vertices, one edge per
    // vertex pair (a < b), sorted by (a, b).
    std::vector<MatchEdge> weights;
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        const long long w =
            eid < static_cast<EdgeId>(edge_weights.size())
                ? edge_weights[eid] : 0;
        if (w <= 0)
            continue;
        int a = vertex_of[e.src], b = vertex_of[e.dst];
        if (a == b)
            continue;
        if (a > b)
            std::swap(a, b);
        weights.push_back({a, b, w});
    }
    mergeParallel(weights);

    while (num_vertices > clusters) {
        auto feasible = [&](int a, int b) {
            return mergeFits(usage[a], usage[b], mach, ii);
        };
        auto pairs = greedyMatching(num_vertices, weights, feasible);

        // Never contract past the target count.
        const std::size_t limit =
            static_cast<std::size_t>(num_vertices - clusters);
        if (pairs.size() > limit)
            pairs.resize(limit);

        if (pairs.empty()) {
            // No capacity-feasible contraction remains. Stop here:
            // the projection step bin-packs the surviving macro-nodes
            // into clusters, which keeps per-cluster usage within
            // available * II instead of forcing an oversized macro.
            break;
        }

        // Renumber: matched pairs collapse, everything else survives.
        std::vector<int> new_id(num_vertices, -1);
        int next = 0;
        for (const auto &[a, b] : pairs) {
            new_id[a] = next;
            new_id[b] = next;
            ++next;
        }
        for (int v = 0; v < num_vertices; ++v) {
            if (new_id[v] == -1)
                new_id[v] = next++;
        }

        // Rebuild usage.
        std::vector<Usage> nusage(next, Usage{});
        for (int v = 0; v < num_vertices; ++v) {
            for (std::size_t k = 0; k < numKinds; ++k)
                nusage[new_id[v]][k] += usage[v][k];
        }
        usage = std::move(nusage);

        // Rebuild edge weights: an edge inside a contracted pair
        // vanishes, and edges that now join the same pair merge.
        std::size_t kept = 0;
        for (const MatchEdge &e : weights) {
            int a = new_id[e.a], b = new_id[e.b];
            if (a == b)
                continue;
            if (a > b)
                std::swap(a, b);
            weights[kept++] = {a, b, e.weight};
        }
        weights.resize(kept);
        mergeParallel(weights);

        // Record the level as original-node -> group.
        std::vector<int> level_map(slots, -1);
        for (NodeId n = 0; n < slots; ++n) {
            const int prev = hier.groupOf(n, hier.numLevels() - 1);
            if (prev >= 0)
                level_map[n] = new_id[prev];
        }
        num_vertices = next;
        hier.addLevel(std::move(level_map), num_vertices);
    }

    return hier;
}

} // namespace cvliw
