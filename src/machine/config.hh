/**
 * @file
 * Machine configuration: the clustered VLIW processor of section 2.1
 * and Table 1 of the paper. Configurations are named `wcxbylzr`
 * (w clusters, x buses, y-cycle bus latency, z architected registers),
 * e.g. "4c2b4l64r"; "unified" names the monolithic processor used as
 * an upper bound in Figure 8.
 */

#ifndef CVLIW_MACHINE_CONFIG_HH
#define CVLIW_MACHINE_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>

#include "machine/op_class.hh"

namespace cvliw
{

/**
 * Functional units of one (homogeneous) cluster. The paper's base
 * machine has 12-wide issue: 4 INT + 4 FP + 4 MEM across all clusters.
 * `anyFus` supports the paper's section-3.3 worked example, where
 * "every FU can execute all types of instructions".
 */
struct ClusterResources
{
    int intFus = 0;   //!< integer units
    int fpFus = 0;    //!< floating-point units
    int memPorts = 0; //!< memory ports
    int anyFus = 0;   //!< universal units (worked-example mode)
};

/**
 * Immutable description of a target machine. All clusters are
 * homogeneous (section 2.1); the register file is partitioned evenly
 * across clusters; buses broadcast a copied value to every cluster.
 * The factories, fromString() and setLatency() throw
 * std::invalid_argument for a bad name, shape or latency.
 */
class MachineConfig
{
  public:
    /**
     * Most clusters, and most buses, one machine may have: partitions
     * and schedules store cluster and bus ids in one byte
     * (`ClusterId`, partition/partition.hh). Every factory rejects a
     * larger count.
     */
    static constexpr int maxUnits = 127;

    /**
     * Parse a configuration name.
     * Accepts `wcxbylzr` (e.g. "4c2b4l64r"), "unified" (64 registers)
     * or "unified<z>r" (e.g. "unified128r").
     */
    static MachineConfig fromString(const std::string &name);

    /**
     * The paper's clustered machine: 4 INT, 4 FP and 4 MEM units
     * split evenly over @p clusters clusters.
     * @param clusters number of clusters (must divide 4, or be 1)
     * @param buses inter-cluster buses
     * @param bus_lat bus latency in cycles (>= 1)
     * @param regs total architected registers (divisible by clusters)
     */
    static MachineConfig clustered(int clusters, int buses, int bus_lat,
                                   int regs);

    /** The unified (1-cluster) machine with the same total resources. */
    static MachineConfig unified(int regs = 64);

    /**
     * A machine whose FUs are universal (any op on any FU), used by
     * the paper's worked example (section 3.3): @p fus_per_cluster
     * universal units per cluster.
     */
    static MachineConfig universal(int clusters, int fus_per_cluster,
                                   int buses, int bus_lat, int regs);

    /** Fully custom machine (heterogeneous FU counts per cluster). */
    static MachineConfig custom(int clusters, ClusterResources res,
                                int buses, int bus_lat, int regs);

    int numClusters() const { return numClusters_; }
    int numBuses() const { return numBuses_; }
    int busLatency() const { return busLatency_; }
    int totalRegs() const { return totalRegs_; }
    int regsPerCluster() const { return totalRegs_ / numClusters_; }
    bool isUnified() const { return numClusters_ == 1; }

    /** Per-cluster FU description (identical for every cluster). */
    const ClusterResources &resources() const { return res_; }

    /** Number of units of @p kind in one cluster (Bus => numBuses). */
    int available(ResourceKind kind) const;

    /** Resource kind consumed by an operation of class @p cls. */
    ResourceKind resourceFor(OpClass cls) const;

    /** Latency in cycles of @p cls on this machine. */
    int latency(OpClass cls) const
    {
        return latency_[static_cast<std::size_t>(cls)];
    }

    /** Override the latency of @p cls (custom machines only). */
    void setLatency(OpClass cls, int cycles);

    /** Total operations issued per cycle across all clusters. */
    int issueWidth() const;

    /** Canonical configuration name (round-trips fromString()). */
    std::string name() const;

    /**
     * Process-unique identity stamp. Copies of a config share the
     * stamp (they describe the same machine); every factory call and
     * every setLatency() yields a fresh one. Caches keyed on
     * (Ddg::generation(), id()) therefore never confuse results
     * computed for different machines, even when two configs would
     * print the same name() but differ in overridden latencies.
     */
    std::uint64_t id() const { return id_; }

  private:
    MachineConfig() = default;

    static std::uint64_t freshId();

    std::uint64_t id_ = freshId();
    int numClusters_ = 1;
    int numBuses_ = 0;
    int busLatency_ = 1;
    int totalRegs_ = 64;
    bool universal_ = false;
    ClusterResources res_;
    std::array<int, static_cast<std::size_t>(OpClass::NumOpClasses)>
        latency_{};
};

} // namespace cvliw

#endif // CVLIW_MACHINE_CONFIG_HH
