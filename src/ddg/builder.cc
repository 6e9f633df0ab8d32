#include "ddg/builder.hh"

#include <stdexcept>

namespace cvliw
{

NodeId
DdgBuilder::op(const std::string &name, OpClass cls,
               std::initializer_list<std::string> operands)
{
    if (byName_.count(name))
        throw std::invalid_argument("duplicate node name '" + name + "'");
    NodeId n = ddg_.addNode(cls);
    byName_[name] = n;
    for (const auto &src : operands)
        ddg_.addEdge(id(src), n, EdgeKind::RegFlow, 0);
    return n;
}

EdgeId
DdgBuilder::flow(const std::string &src, const std::string &dst,
                 int distance)
{
    return ddg_.addEdge(id(src), id(dst), EdgeKind::RegFlow, distance);
}

EdgeId
DdgBuilder::mem(const std::string &src, const std::string &dst,
                int distance, int latency)
{
    return ddg_.addEdge(id(src), id(dst), EdgeKind::Memory, distance,
                        latency);
}

void
DdgBuilder::liveOut(const std::string &name)
{
    ddg_.node(id(name)).liveOut = true;
}

NodeId
DdgBuilder::id(const std::string &name) const
{
    auto it = byName_.find(name);
    if (it == byName_.end())
        throw std::invalid_argument("unknown node name '" + name + "'");
    return it->second;
}

} // namespace cvliw
