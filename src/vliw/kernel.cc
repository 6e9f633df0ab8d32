#include "vliw/kernel.hh"

#include <algorithm>
#include <ostream>

#include "support/logging.hh"
#include "support/strutil.hh"
#include "support/table.hh"

namespace cvliw
{

KernelView::KernelView(const Ddg &ddg, const MachineConfig &mach,
                       const Partition &part, const Schedule &sched)
    : ii_(sched.ii), stageCount_(sched.stageCount),
      numClusters_(mach.numClusters())
{
    cells_.assign(ii_, std::vector<std::vector<std::string>>(
                           numClusters_));
    busCells_.assign(ii_, {});

    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        const int t = sched.start[v];
        const int phase = ((t % ii_) + ii_) % ii_;
        const int stage = t / ii_;
        const std::string name = "n" + std::to_string(v);
        const std::string tag = name + "/s" + std::to_string(stage);
        if (node.cls == OpClass::Copy) {
            for (int k = 0; k < mach.busLatency(); ++k) {
                busCells_[((t + k) % ii_ + ii_) % ii_].push_back(
                    k == 0 ? tag : name + "...");
            }
        } else {
            cells_[phase][part.clusterOf(v)].push_back(tag);
        }
    }
    for (auto &row : cells_) {
        for (auto &cell : row)
            std::sort(cell.begin(), cell.end());
    }
    for (auto &cell : busCells_)
        std::sort(cell.begin(), cell.end());
}

const std::vector<std::string> &
KernelView::ops(int phase, int cluster) const
{
    cv_assert(phase >= 0 && phase < ii_, "bad phase ", phase);
    cv_assert(cluster >= 0 && cluster < numClusters_, "bad cluster ",
              cluster);
    return cells_[phase][cluster];
}

void
KernelView::print(std::ostream &os) const
{
    TextTable table;
    std::vector<std::string> header{"phase"};
    for (int c = 0; c < numClusters_; ++c)
        header.push_back("cluster" + std::to_string(c));
    header.push_back("bus");
    table.addRow(header);

    for (int t = 0; t < ii_; ++t) {
        std::vector<std::string> row{std::to_string(t)};
        for (int c = 0; c < numClusters_; ++c)
            row.push_back(join(cells_[t][c], " "));
        row.push_back(join(busCells_[t], " "));
        table.addRow(row);
    }
    os << "kernel: II=" << ii_ << " SC=" << stageCount_ << "\n";
    table.print(os);
}

} // namespace cvliw
