#include "machine/config.hh"

#include <stdexcept>

#include "support/logging.hh"
#include "support/strutil.hh"

namespace cvliw
{

namespace
{

/**
 * Reject a machine without clusters, cluster and bus counts above
 * MachineConfig::maxUnits (every id must fit the one-byte arrays of
 * partitions and schedules), several clusters without a bus, and
 * registers that do not split evenly over the clusters.
 */
void
checkCounts(int clusters, int buses, int regs)
{
    if (clusters < 1)
        throw std::invalid_argument("need at least one cluster");
    if (clusters > MachineConfig::maxUnits)
        throw std::invalid_argument(
            detail::concat("cluster count ", clusters,
                           " exceeds the limit of ",
                           MachineConfig::maxUnits));
    if (buses > MachineConfig::maxUnits)
        throw std::invalid_argument(
            detail::concat("bus count ", buses, " exceeds the limit of ",
                           MachineConfig::maxUnits));
    if (clusters > 1 && buses < 1)
        throw std::invalid_argument("clustered machine needs >=1 bus");
    if (regs < clusters)
        throw std::invalid_argument(
            detail::concat("registers (", regs, ") fewer than clusters (",
                           clusters, "): every cluster needs one"));
    if (regs % clusters != 0)
        throw std::invalid_argument(
            detail::concat("registers (", regs,
                           ") not divisible by clusters (", clusters,
                           ")"));
}

/** Longest number a machine name may hold: std::stoi never overflows. */
constexpr std::size_t kMaxDigits = 9;

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
            if (allDigits(digits) && digits.size() <= kMaxDigits)
                return unified(std::stoi(digits));
        }
        throw std::invalid_argument("bad unified machine name '" +
                                    name + "'");
    }

    // wcxbylzr, each field an unsigned integer that fits an int.
    int fields[4];
    const char letters[4] = {'c', 'b', 'l', 'r'};
    std::size_t pos = 0;
    for (int f = 0; f < 4; ++f) {
        std::size_t start = pos;
        while (pos < name.size() &&
               std::isdigit(static_cast<unsigned char>(name[pos]))) {
            ++pos;
        }
        if (start == pos || pos - start > kMaxDigits ||
            pos >= name.size() || name[pos] != letters[f])
            throw std::invalid_argument(
                "bad machine name '" + name +
                "'; expected wcxbylzr, e.g. 4c2b4l64r");
        fields[f] = std::stoi(name.substr(start, pos - start));
        ++pos;
    }
    if (pos != name.size())
        throw std::invalid_argument(
            "trailing characters in machine name '" + name + "'");
    return clustered(fields[0], fields[1], fields[2], fields[3]);
}

MachineConfig
MachineConfig::clustered(int clusters, int buses, int bus_lat, int regs)
{
    checkCounts(clusters, buses, regs);
    if (clusters > 1 && bus_lat < 1)
        throw std::invalid_argument(
            "clustered machine needs >=1 bus of latency >=1");
    if (4 % clusters != 0)
        throw std::invalid_argument(
            detail::concat("cluster count ", clusters,
                           " does not evenly divide the 12-wide machine"));

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
        throw std::invalid_argument("bad universal machine shape");
    checkCounts(clusters, buses, regs);
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
    checkCounts(clusters, buses, regs);
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
    if (cls >= OpClass::NumOpClasses)
        throw std::invalid_argument(
            detail::concat("op class ", static_cast<int>(cls),
                           " outside the op classes"));
    if (cycles < 1)
        throw std::invalid_argument("latency must be >= 1");
    latency_[static_cast<std::size_t>(cls)] = cycles;
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
