#include "machine/config.hh"

#include <atomic>

#include "support/logging.hh"
#include "support/strutil.hh"

namespace cvliw
{

std::uint64_t
MachineConfig::freshId()
{
    // Process-unique stamps, like Ddg::freshGeneration: the suite
    // runner builds configs from several threads.
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

namespace
{

/**
 * Reject cluster and bus counts above MachineConfig::maxUnits: every
 * id must fit the one-byte arrays of partitions and schedules.
 */
void
checkUnitCounts(int clusters, int buses)
{
    if (clusters > MachineConfig::maxUnits)
        cv_fatal("cluster count ", clusters, " exceeds the limit of ",
                 MachineConfig::maxUnits);
    if (buses > MachineConfig::maxUnits)
        cv_fatal("bus count ", buses, " exceeds the limit of ",
                 MachineConfig::maxUnits);
}

/** Fill the latency table with Table-1 defaults. */
void
fillDefaultLatencies(
    std::array<int, static_cast<std::size_t>(OpClass::NumOpClasses)> &lat)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(OpClass::NumOpClasses); ++i) {
        lat[i] = defaultLatency(static_cast<OpClass>(i));
    }
}

} // namespace

MachineConfig
MachineConfig::fromString(const std::string &name)
{
    if (name.rfind("unified", 0) == 0) {
        std::string rest = name.substr(7);
        if (rest.empty())
            return unified();
        if (rest.back() == 'r') {
            std::string digits = rest.substr(0, rest.size() - 1);
            if (allDigits(digits))
                return unified(std::stoi(digits));
        }
        cv_fatal("bad unified machine name '", name, "'");
    }

    // wcxbylzr, each field an unsigned integer.
    int fields[4];
    const char letters[4] = {'c', 'b', 'l', 'r'};
    std::size_t pos = 0;
    for (int f = 0; f < 4; ++f) {
        std::size_t start = pos;
        while (pos < name.size() &&
               std::isdigit(static_cast<unsigned char>(name[pos]))) {
            ++pos;
        }
        if (start == pos || pos >= name.size() || name[pos] != letters[f])
            cv_fatal("bad machine name '", name,
                     "'; expected wcxbylzr, e.g. 4c2b4l64r");
        fields[f] = std::stoi(name.substr(start, pos - start));
        ++pos;
    }
    if (pos != name.size())
        cv_fatal("trailing characters in machine name '", name, "'");
    return clustered(fields[0], fields[1], fields[2], fields[3]);
}

MachineConfig
MachineConfig::clustered(int clusters, int buses, int bus_lat, int regs)
{
    if (clusters < 1)
        cv_fatal("need at least one cluster");
    checkUnitCounts(clusters, buses);
    if (clusters > 1 && (buses < 1 || bus_lat < 1))
        cv_fatal("clustered machine needs >=1 bus of latency >=1");
    if (4 % clusters != 0)
        cv_fatal("cluster count ", clusters,
                 " does not evenly divide the 12-wide machine");
    if (regs % clusters != 0)
        cv_fatal("registers (", regs, ") not divisible by clusters (",
                 clusters, ")");

    MachineConfig cfg;
    cfg.numClusters_ = clusters;
    cfg.numBuses_ = clusters == 1 ? 0 : buses;
    cfg.busLatency_ = clusters == 1 ? 1 : bus_lat;
    cfg.totalRegs_ = regs;
    cfg.res_.intFus = 4 / clusters;
    cfg.res_.fpFus = 4 / clusters;
    cfg.res_.memPorts = 4 / clusters;
    fillDefaultLatencies(cfg.latency_);
    return cfg;
}

MachineConfig
MachineConfig::unified(int regs)
{
    return clustered(1, 0, 1, regs);
}

MachineConfig
MachineConfig::universal(int clusters, int fus_per_cluster, int buses,
                         int bus_lat, int regs)
{
    if (clusters < 1 || fus_per_cluster < 1)
        cv_fatal("bad universal machine shape");
    checkUnitCounts(clusters, buses);
    if (regs % clusters != 0)
        cv_fatal("registers (", regs, ") not divisible by clusters (",
                 clusters, ")");
    MachineConfig cfg;
    cfg.numClusters_ = clusters;
    cfg.numBuses_ = clusters == 1 ? 0 : buses;
    cfg.busLatency_ = bus_lat;
    cfg.totalRegs_ = regs;
    cfg.universal_ = true;
    cfg.res_.anyFus = fus_per_cluster;
    fillDefaultLatencies(cfg.latency_);
    return cfg;
}

MachineConfig
MachineConfig::custom(int clusters, ClusterResources res, int buses,
                      int bus_lat, int regs)
{
    if (clusters < 1)
        cv_fatal("need at least one cluster");
    checkUnitCounts(clusters, buses);
    if (regs % clusters != 0)
        cv_fatal("registers (", regs, ") not divisible by clusters (",
                 clusters, ")");
    MachineConfig cfg;
    cfg.numClusters_ = clusters;
    cfg.numBuses_ = clusters == 1 ? 0 : buses;
    cfg.busLatency_ = bus_lat < 1 ? 1 : bus_lat;
    cfg.totalRegs_ = regs;
    cfg.universal_ = res.anyFus > 0;
    cfg.res_ = res;
    fillDefaultLatencies(cfg.latency_);
    return cfg;
}

int
MachineConfig::available(ResourceKind kind) const
{
    switch (kind) {
      case ResourceKind::IntFu:   return res_.intFus;
      case ResourceKind::FpFu:    return res_.fpFus;
      case ResourceKind::MemPort: return res_.memPorts;
      case ResourceKind::AnyFu:   return res_.anyFus;
      case ResourceKind::Bus:     return numBuses_;
      default: cv_panic("bad ResourceKind");
    }
}

ResourceKind
MachineConfig::resourceFor(OpClass cls) const
{
    if (cls == OpClass::Copy)
        return ResourceKind::Bus;
    if (universal_)
        return ResourceKind::AnyFu;
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
        return ResourceKind::IntFu;
      case OpClass::FpAlu:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        return ResourceKind::FpFu;
      case OpClass::Load:
      case OpClass::Store:
        return ResourceKind::MemPort;
      default:
        cv_panic("bad OpClass ", static_cast<int>(cls));
    }
}

void
MachineConfig::setLatency(OpClass cls, int cycles)
{
    if (cycles < 1)
        cv_fatal("latency must be >= 1");
    latency_[static_cast<std::size_t>(cls)] = cycles;
    // The override changes analysis-relevant behaviour without
    // changing name(); re-stamp so caches see a different machine.
    id_ = freshId();
}

int
MachineConfig::issueWidth() const
{
    return numClusters_ *
           (res_.intFus + res_.fpFus + res_.memPorts + res_.anyFus);
}

std::string
MachineConfig::name() const
{
    if (numClusters_ == 1 && !universal_) {
        if (totalRegs_ == 64)
            return "unified";
        return "unified" + std::to_string(totalRegs_) + "r";
    }
    return std::to_string(numClusters_) + "c" +
           std::to_string(numBuses_) + "b" +
           std::to_string(busLatency_) + "l" +
           std::to_string(totalRegs_) + "r";
}

} // namespace cvliw
