#include "partition/refine.hh"

#include <limits>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

/** Refinement passes per call. */
constexpr int kMaxPasses = 4;

} // namespace

Partition
refinePartition(const Ddg &ddg, const MachineConfig &mach,
                const LoopAnalysis &analysis, const Partition &initial,
                int ii, PseudoScratch &s)
{
    if (mach.numClusters() == 1)
        return initial;

    Partition part = initial;
    // bind() seeds the incremental move-evaluation state and returns
    // the from-scratch result of the starting assignment.
    PseudoResult best = s.bind(ddg, mach, analysis, part.vec(), ii);

    const auto live = ddg.nodes();
    // The node of the previous pass's last commit (live nodes run in
    // id order). Past it, a pass that has committed nothing probes
    // the same state against the same `best` as the previous pass
    // did, so it would reject every move again: it stops there.
    NodeId last_commit = std::numeric_limits<NodeId>::max();
    for (int pass = 0; pass < kMaxPasses; ++pass) {
        bool improved = false;
        NodeId pass_last_commit = invalidNode;
        for (NodeId n : live) {
            if (!improved && n > last_commit)
                break;
            if (ddg.node(n).cls == OpClass::Copy)
                continue;
            const int home = s.assignment()[n];
            int best_cluster = home;
            for (int c = 0; c < mach.numClusters(); ++c) {
                if (c == home || c == best_cluster)
                    continue;
                PseudoResult r;
                if (s.probeMove(n, c, best, r)) {
                    best = r;
                    best_cluster = c;
                }
            }
            if (best_cluster != home) {
                s.commitMove(n, best_cluster);
                improved = true;
                pass_last_commit = n;
            }
        }
        if (!improved)
            break;
        last_commit = pass_last_commit;
    }

    for (NodeId n : live)
        part.assign(n, s.assignment()[n]);
    return part;
}

Partition
refinePartition(const Ddg &ddg, const MachineConfig &mach,
                const Partition &initial, int ii, PseudoScratch *scratch)
{
    PseudoScratch local;
    return refinePartition(ddg, mach, analyzeLoop(ddg, mach), initial,
                           ii, scratch ? *scratch : local);
}

} // namespace cvliw
