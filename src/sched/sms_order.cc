#include "sched/sms_order.hh"

#include <algorithm>
#include <set>
#include <tuple>

#include "support/logging.hh"

namespace cvliw
{

std::vector<NodeId>
smsOrder(const Ddg &ddg, const LoopAnalysis &analysis)
{
    const NodeTimes &times = analysis.times;

    // Priority sets: recurrences by decreasing RecMII (ties: lowest
    // first member first), then the rest as one trailing set ordered
    // by criticality alone.
    std::vector<const Recurrence *> sets;
    for (const Recurrence &r : analysis.recurrences)
        sets.push_back(&r);
    std::sort(sets.begin(), sets.end(),
              [](const Recurrence *a, const Recurrence *b) {
                  return std::tie(b->recMii, a->members.front()) <
                         std::tie(a->recMii, b->members.front());
              });

    // Rank per node: its set's position (tighter recurrences first).
    std::vector<int> rank(ddg.numNodeSlots(),
                          static_cast<int>(sets.size()));
    for (std::size_t s = 0; s < sets.size(); ++s) {
        for (NodeId n : sets[s]->members)
            rank[n] = static_cast<int>(s);
    }

    // Priority-topological order over the distance-0 edges. Placing
    // producers strictly before their intra-iteration consumers
    // guarantees that every constraint from an already-placed
    // *successor* comes through a loop-carried edge, whose window
    // grows with II - so raising the II always makes progress (the
    // property the no-backtracking scheduler of section 2.3.2 needs).
    // Among ready nodes, the tightest recurrence set goes first,
    // then the most critical node (lowest mobility, largest
    // depth+height).
    std::vector<int> indeg(ddg.numNodeSlots(), 0);
    for (EdgeId eid : ddg.edges()) {
        if (ddg.edge(eid).distance == 0)
            ++indeg[ddg.edge(eid).dst];
    }

    using Key = std::tuple<int, int, int, NodeId>;
    auto key_of = [&](NodeId n) {
        return Key(rank[n], times.mobility(n),
                   -(times.depth[n] + times.height[n]), n);
    };
    std::set<Key> ready;
    for (NodeId n : ddg.nodes()) {
        if (indeg[n] == 0)
            ready.insert(key_of(n));
    }

    std::vector<NodeId> order;
    order.reserve(ddg.numNodes());
    while (!ready.empty()) {
        const NodeId n = std::get<3>(*ready.begin());
        ready.erase(ready.begin());
        order.push_back(n);
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && e.distance == 0 && --indeg[e.dst] == 0)
                ready.insert(key_of(e.dst));
        }
    }

    cv_assert(static_cast<int>(order.size()) == ddg.numNodes(),
              "SMS order lost nodes");
    return order;
}

} // namespace cvliw
