#include "vliw/kernel.hh"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>

#include "support/strutil.hh"
#include "support/table.hh"

namespace cvliw
{

KernelView::KernelView(const Ddg &ddg, const MachineConfig &mach,
                       const Partition &part, const Schedule &sched)
    : ii_(sched.ii), stageCount_(sched.stageCount),
      numClusters_(mach.numClusters())
{
    if (ii_ < 1)
        throw std::invalid_argument("kernel of II " +
                                    std::to_string(ii_) + " < 1");
    cells_.assign(ii_, std::vector<std::vector<std::string>>(
                           numClusters_));
    busCells_.assign(ii_, {});

    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        const std::string name = "n" + std::to_string(v);
        if (v >= static_cast<NodeId>(sched.start.size()) ||
            sched.start[v] < 0)
            throw std::invalid_argument(name + " is not scheduled");
        const int t = sched.start[v];
        const int phase = t % ii_;
        const int stage = t / ii_;
        const std::string tag = name + "/s" + std::to_string(stage);
        if (node.cls == OpClass::Copy) {
            for (int k = 0; k < mach.busLatency(); ++k)
                busCells_[(t + k) % ii_].push_back(k == 0 ? tag
                                                          : name + "...");
        } else {
            if (!part.isAssigned(v) ||
                part.clusterOf(v) >= numClusters_) {
                throw std::invalid_argument(
                    name + " is on no cluster of the " +
                    std::to_string(numClusters_) + "-cluster machine");
            }
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
    if (phase < 0 || phase >= ii_ || cluster < 0 ||
        cluster >= numClusters_) {
        throw std::out_of_range(
            "phase " + std::to_string(phase) + ", cluster " +
            std::to_string(cluster) + " outside the " +
            std::to_string(ii_) + "-phase, " +
            std::to_string(numClusters_) + "-cluster kernel");
    }
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
