#include "vliw/reference.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ddg/analysis.hh"
#include "support/logging.hh"

namespace cvliw
{

namespace
{

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** The fold's starting value for (@p semantic, @p cls). */
std::uint64_t
combineSeed(std::uint64_t seed, NodeId semantic, OpClass cls)
{
    return mix64(seed ^ (static_cast<std::uint64_t>(semantic) + 1) *
                            0x9e3779b97f4a7c15ULL) ^
           mix64(static_cast<std::uint64_t>(cls) + 0x1234567ULL);
}

} // namespace

std::uint64_t
liveInValue(std::uint64_t seed, NodeId semantic, long long iter)
{
    cv_assert(iter < 0, "live-in value requested for iteration ", iter);
    return mix64(seed ^ mix64(static_cast<std::uint64_t>(semantic) *
                              0x9e3779b97f4a7c15ULL) ^
                 mix64(static_cast<std::uint64_t>(-iter)));
}

std::uint64_t
combineValue(std::uint64_t seed, NodeId semantic, OpClass cls,
             const std::vector<Operand> &sorted_operands)
{
    std::uint64_t h = combineSeed(seed, semantic, cls);
    for (const Operand &op : sorted_operands)
        h = mix64(h ^ std::get<2>(op));
    return h;
}

std::uint64_t
sourceValue(std::uint64_t seed, NodeId semantic, OpClass cls,
            long long iter)
{
    // combineValue of the single operand mix64(iter + 77).
    return mix64(combineSeed(seed, semantic, cls) ^
                 mix64(static_cast<std::uint64_t>(iter) + 77));
}

ReferenceInterpreter::ReferenceInterpreter(const Ddg &original,
                                           int iterations,
                                           std::uint64_t seed)
    : ddg_(original), iterations_(iterations), seed_(seed),
      slots_(static_cast<std::size_t>(original.numNodeSlots()))
{
    if (iterations < 1)
        throw std::invalid_argument("iterations " +
                                    std::to_string(iterations) + " < 1");
    const auto order = topoOrder(ddg_);
    values_.assign(static_cast<std::size_t>(iterations) * slots_, 0);

    std::vector<Operand> ops; // reused by every instance
    for (int i = 0; i < iterations; ++i) {
        std::uint64_t *row = &values_[static_cast<std::size_t>(i) * slots_];
        for (NodeId v : order) {
            const DdgNode &node = ddg_.node(v);
            // Canonical operand order: (producer semantic, distance,
            // value). The simulator reproduces the same ordering on
            // the transformed graph, where copies collapse to their
            // sources and replicas share semantic ids.
            ops.clear();
            for (EdgeId eid : ddg_.inEdgesRaw(v)) {
                const DdgEdge &e = ddg_.edge(eid);
                if (!e.alive || e.kind != EdgeKind::RegFlow)
                    continue;
                const long long src_iter =
                    static_cast<long long>(i) - e.distance;
                const std::uint64_t val =
                    src_iter >= 0
                        ? values_[static_cast<std::size_t>(src_iter) *
                                      slots_ +
                                  static_cast<std::size_t>(e.src)]
                        : liveInValue(seed_, e.src, src_iter);
                ops.emplace_back(e.src, e.distance, val);
            }
            if (ops.empty()) {
                // Source node (e.g. a load off a live-in address):
                // deterministic per (node, iteration).
                row[v] = sourceValue(seed_, v, node.cls, i);
            } else {
                std::sort(ops.begin(), ops.end());
                row[v] = combineValue(seed_, v, node.cls, ops);
            }
        }
    }
}

std::uint64_t
ReferenceInterpreter::value(NodeId semantic, long long iter) const
{
    if (iter < 0)
        return liveInValue(seed_, semantic, iter);
    cv_assert(iter < iterations_, "iteration ", iter,
              " beyond simulated range");
    return values_[static_cast<std::size_t>(iter) * slots_ +
                   static_cast<std::size_t>(semantic)];
}

} // namespace cvliw
