#include "sched/mii.hh"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "ddg/analysis.hh"
#include "support/logging.hh"

namespace cvliw
{

int
resourceMii(const Ddg &ddg, const MachineConfig &mach)
{
    constexpr auto num_kinds =
        static_cast<std::size_t>(ResourceKind::NumResourceKinds);
    std::array<int, num_kinds> uses{};
    for (NodeId n : ddg.nodes()) {
        const OpClass cls = ddg.node(n).cls;
        if (cls == OpClass::Copy)
            continue; // copies depend on the partition, not the DDG
        ++uses[static_cast<std::size_t>(mach.resourceFor(cls))];
    }

    int mii = 1;
    for (std::size_t k = 0; k < num_kinds; ++k) {
        if (!uses[k])
            continue;
        const auto kind = static_cast<ResourceKind>(k);
        const int total = mach.available(kind) * mach.numClusters();
        if (total == 0)
            throw std::invalid_argument(
                detail::concat("machine has no ", toString(kind),
                               " units but the loop needs them"));
        mii = std::max(mii, (uses[k] + total - 1) / total);
    }
    return mii;
}

int
minimumIi(const Ddg &ddg, const MachineConfig &mach)
{
    return std::max(resourceMii(ddg, mach), analyzeLoop(ddg, mach).recMii);
}

} // namespace cvliw
