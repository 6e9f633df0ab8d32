#include "ddg/dot.hh"

#include <ostream>

namespace cvliw
{

void
writeDot(std::ostream &os, const Ddg &ddg,
         const std::vector<int> &cluster_of)
{
    static const char *palette[] = {
        "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f",
        "#cab2d6", "#ffff99", "#1f78b4", "#33a02c",
    };
    constexpr int palette_size = 8;

    os << "digraph ddg {\n  rankdir=TB;\n"
       << "  node [shape=box, style=filled, fillcolor=white];\n";
    for (NodeId n : ddg.nodes()) {
        const DdgNode &node = ddg.node(n);
        os << "  n" << n << " [label=\"n" << n << "\\n"
           << toString(node.cls) << "\"";
        if (n < static_cast<NodeId>(cluster_of.size()) &&
            cluster_of[n] >= 0) {
            os << ", fillcolor=\""
               << palette[cluster_of[n] % palette_size] << "\"";
        }
        if (node.isReplica)
            os << ", peripheries=2";
        os << "];\n";
    }
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        os << "  n" << e.src << " -> n" << e.dst;
        os << " [label=\"" << e.distance << "\"";
        if (e.kind == EdgeKind::Memory)
            os << ", style=dashed";
        if (e.distance > 0)
            os << ", color=red";
        os << "];\n";
    }
    os << "}\n";
}

} // namespace cvliw
