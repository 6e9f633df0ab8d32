#include "vliw/simulator.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ddg/analysis.hh"
#include "support/logging.hh"
#include "vliw/checker.hh"
#include "vliw/reference.hh"

namespace cvliw
{

namespace
{

/** Copies and spill stores/reloads forward their operand's value. */
bool
isTransparent(const DdgNode &node)
{
    return node.cls == OpClass::Copy || node.isSpill;
}

/**
 * Collapse a producer through copies and spill code to its semantic
 * source, accumulating the edge distances on the way.
 */
void
collapseTransparent(const Ddg &ddg, NodeId &p, int &distance)
{
    while (isTransparent(ddg.node(p))) {
        NodeId src = invalidNode;
        for (EdgeId eid : ddg.inEdgesRaw(p)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive &&
                (e.kind == EdgeKind::RegFlow ||
                 e.kind == EdgeKind::Spill)) {
                src = e.src;
                distance += e.distance;
                break;
            }
        }
        cv_assert(src != invalidNode,
                  "transparent node without operand");
        p = src;
    }
}

} // namespace

SimulationReport
simulate(const Ddg &final_ddg, const MachineConfig &mach,
         const Partition &part, const Schedule &sched,
         const Ddg &original, int iterations, std::uint64_t seed,
         const SchedulerOptions &opts)
{
    if (iterations < 1)
        throw std::invalid_argument("iterations " +
                                    std::to_string(iterations) + " < 1");
    SimulationReport report;

    // Structural checks first; a broken schedule is not worth
    // executing.
    report.errors = checkSchedule(final_ddg, mach, part, sched, opts);
    if (!report.errors.empty()) {
        report.ok = false;
        return report;
    }

    const ReferenceInterpreter ref(original, iterations, seed);
    const auto order = topoOrder(final_ddg);
    const int ii = sched.ii;

    // Value of (iter, node) at values[iter * slots + node].
    const auto slots = static_cast<std::size_t>(final_ddg.numNodeSlots());
    std::vector<std::uint64_t> values(
        static_cast<std::size_t>(iterations) * slots, 0);
    auto value_at = [&](long long iter, NodeId v) -> std::uint64_t & {
        return values[static_cast<std::size_t>(iter) * slots +
                      static_cast<std::size_t>(v)];
    };

    auto name = [](NodeId v) { return "n" + std::to_string(v); };
    std::vector<Operand> ops; // reused by every instance
    for (int i = 0; i < iterations; ++i) {
        for (NodeId v : order) {
            const DdgNode &node = final_ddg.node(v);

            // Gather operands in the canonical (semantic, distance,
            // value) order that the reference interpreter uses.
            ops.clear();
            for (EdgeId eid : final_ddg.inEdgesRaw(v)) {
                const DdgEdge &e = final_ddg.edge(eid);
                if (!e.alive || e.kind == EdgeKind::Memory)
                    continue;
                const NodeId p = e.src;
                const DdgNode &pn = final_ddg.node(p);

                // Cluster visibility: a register can be read where it
                // was produced; copies deliver to every cluster; the
                // spill slot lives in the centralized cache.
                if (e.kind == EdgeKind::RegFlow &&
                    (node.cls == OpClass::Copy ||
                     pn.cls != OpClass::Copy)) {
                    if (part.clusterOf(p) != part.clusterOf(v)) {
                        report.errors.push_back(
                            name(v) + " reads " + name(p) +
                            " across clusters without a copy");
                    }
                }

                // Dynamic dependence timing.
                const long long src_iter =
                    static_cast<long long>(i) - e.distance;
                if (src_iter >= 0) {
                    const int lat =
                        opts.zeroBusLatencyForLength &&
                                e.kind == EdgeKind::RegFlow &&
                                pn.cls == OpClass::Copy
                            ? 0
                            : final_ddg.edgeLatency(eid, mach);
                    const long long ready =
                        sched.start[p] + src_iter * ii + lat;
                    const long long reads =
                        sched.start[v] + static_cast<long long>(i) * ii;
                    if (reads < ready) {
                        report.errors.push_back(
                            name(v) + "@" + std::to_string(i) +
                            " reads " + name(p) + " at cycle " +
                            std::to_string(reads) +
                            " before it is ready at " +
                            std::to_string(ready));
                    }
                }

                // Operand value, collapsing copies and spill code.
                NodeId sem_src = p;
                int total_dist = e.distance;
                collapseTransparent(final_ddg, sem_src, total_dist);
                const NodeId sem =
                    final_ddg.node(sem_src).semanticId;
                std::uint64_t val;
                if (src_iter >= 0) {
                    val = value_at(src_iter, p);
                } else {
                    // Live-in: the value semantically equals the
                    // collapsed source at the collapsed distance.
                    const long long sem_iter =
                        static_cast<long long>(i) - total_dist;
                    val = sem_iter >= 0
                              ? ref.value(sem, sem_iter)
                              : liveInValue(seed, sem, sem_iter);
                }
                ops.emplace_back(sem, total_dist, val);
            }

            std::uint64_t &out = value_at(i, v);
            if (isTransparent(node)) {
                cv_assert(ops.size() == 1,
                          "transparent node with fan-in != 1");
                out = std::get<2>(ops[0]);
                continue;
            }

            if (ops.empty()) {
                out = sourceValue(seed, node.semanticId, node.cls, i);
            } else {
                std::sort(ops.begin(), ops.end());
                out = combineValue(seed, node.semanticId, node.cls, ops);
            }

            // Compare against the reference execution.
            const std::uint64_t expected =
                ref.value(node.semanticId, i);
            ++report.valuesChecked;
            if (out != expected) {
                report.errors.push_back(
                    name(v) + "@" + std::to_string(i) +
                    " computed a value different from the original " +
                    name(node.semanticId));
            }
        }
        if (report.errors.size() > 20)
            break; // enough evidence
    }

    report.ok = report.errors.empty();
    return report;
}

} // namespace cvliw
