/**
 * @file
 * Machine model tests: Table-1 latencies, wcxbylzr parsing and the
 * paper's cluster configurations.
 */

#include <gtest/gtest.h>

#include <vector>

#include "expect_invalid.hh"
#include "machine/config.hh"

namespace cvliw
{
namespace
{

TEST(OpClass, Table1Latencies)
{
    // Table 1: MEM 2/2, ARITH 1/3, MUL/ABS 2/6, DIV/SQRT 6/18.
    EXPECT_EQ(defaultLatency(OpClass::Load), 2);
    EXPECT_EQ(defaultLatency(OpClass::IntAlu), 1);
    EXPECT_EQ(defaultLatency(OpClass::FpAlu), 3);
    EXPECT_EQ(defaultLatency(OpClass::IntMul), 2);
    EXPECT_EQ(defaultLatency(OpClass::FpMul), 6);
    EXPECT_EQ(defaultLatency(OpClass::IntDiv), 6);
    EXPECT_EQ(defaultLatency(OpClass::FpDiv), 18);
}

TEST(OpClass, StoresProduceNoValue)
{
    EXPECT_FALSE(producesValue(OpClass::Store));
    EXPECT_TRUE(producesValue(OpClass::Load));
    EXPECT_TRUE(producesValue(OpClass::FpAlu));
    EXPECT_TRUE(producesValue(OpClass::Copy));
}

TEST(OpClass, Figure10Categories)
{
    EXPECT_EQ(categoryOf(OpClass::Load), OpCategory::Mem);
    EXPECT_EQ(categoryOf(OpClass::Store), OpCategory::Mem);
    EXPECT_EQ(categoryOf(OpClass::IntAlu), OpCategory::Int);
    EXPECT_EQ(categoryOf(OpClass::IntDiv), OpCategory::Int);
    EXPECT_EQ(categoryOf(OpClass::FpMul), OpCategory::Fp);
    EXPECT_EQ(categoryOf(OpClass::Copy), OpCategory::Other);
}

TEST(MachineConfig, Parse4c2b4l64r)
{
    const auto m = MachineConfig::fromString("4c2b4l64r");
    EXPECT_EQ(m.numClusters(), 4);
    EXPECT_EQ(m.numBuses(), 2);
    EXPECT_EQ(m.busLatency(), 4);
    EXPECT_EQ(m.totalRegs(), 64);
    EXPECT_EQ(m.regsPerCluster(), 16);
    EXPECT_FALSE(m.isUnified());
}

TEST(MachineConfig, Parse2c1b2l64r)
{
    const auto m = MachineConfig::fromString("2c1b2l64r");
    EXPECT_EQ(m.numClusters(), 2);
    EXPECT_EQ(m.numBuses(), 1);
    EXPECT_EQ(m.busLatency(), 2);
    EXPECT_EQ(m.regsPerCluster(), 32);
}

TEST(MachineConfig, FourClusterResourceSplit)
{
    // 4-cluster: one FU of each type per cluster (section 4).
    const auto m = MachineConfig::fromString("4c1b2l64r");
    EXPECT_EQ(m.resources().intFus, 1);
    EXPECT_EQ(m.resources().fpFus, 1);
    EXPECT_EQ(m.resources().memPorts, 1);
    EXPECT_EQ(m.issueWidth(), 12);
}

TEST(MachineConfig, TwoClusterResourceSplit)
{
    // 2-cluster: two FUs of each type per cluster.
    const auto m = MachineConfig::fromString("2c1b2l64r");
    EXPECT_EQ(m.resources().intFus, 2);
    EXPECT_EQ(m.resources().fpFus, 2);
    EXPECT_EQ(m.resources().memPorts, 2);
    EXPECT_EQ(m.issueWidth(), 12);
}

TEST(MachineConfig, Unified)
{
    const auto m = MachineConfig::fromString("unified");
    EXPECT_TRUE(m.isUnified());
    EXPECT_EQ(m.numClusters(), 1);
    EXPECT_EQ(m.numBuses(), 0);
    EXPECT_EQ(m.resources().intFus, 4);
    EXPECT_EQ(m.resources().fpFus, 4);
    EXPECT_EQ(m.resources().memPorts, 4);
    EXPECT_EQ(m.issueWidth(), 12);
    EXPECT_EQ(m.totalRegs(), 64);
}

TEST(MachineConfig, UnifiedWithRegisters)
{
    const auto m = MachineConfig::fromString("unified128r");
    EXPECT_TRUE(m.isUnified());
    EXPECT_EQ(m.totalRegs(), 128);
}

TEST(MachineConfig, NameRoundTrips)
{
    for (const char *name :
         {"2c1b2l64r", "2c2b4l64r", "4c1b2l64r", "4c2b4l64r",
          "4c2b2l64r", "4c4b4l64r", "4c1b2l32r", "4c1b2l128r"}) {
        EXPECT_EQ(MachineConfig::fromString(name).name(), name);
    }
    EXPECT_EQ(MachineConfig::unified().name(), "unified");
}

TEST(MachineConfig, ResourceForOpClass)
{
    const auto m = MachineConfig::fromString("4c1b2l64r");
    EXPECT_EQ(m.resourceFor(OpClass::IntAlu), ResourceKind::IntFu);
    EXPECT_EQ(m.resourceFor(OpClass::IntDiv), ResourceKind::IntFu);
    EXPECT_EQ(m.resourceFor(OpClass::FpMul), ResourceKind::FpFu);
    EXPECT_EQ(m.resourceFor(OpClass::Load), ResourceKind::MemPort);
    EXPECT_EQ(m.resourceFor(OpClass::Store), ResourceKind::MemPort);
    EXPECT_EQ(m.resourceFor(OpClass::Copy), ResourceKind::Bus);
}

TEST(MachineConfig, UniversalMachine)
{
    // The worked example's machine: 4 universal FUs per cluster.
    const auto m = MachineConfig::universal(4, 4, 1, 1, 64);
    EXPECT_EQ(m.numClusters(), 4);
    EXPECT_EQ(m.available(ResourceKind::AnyFu), 4);
    EXPECT_EQ(m.resourceFor(OpClass::FpMul), ResourceKind::AnyFu);
    EXPECT_EQ(m.resourceFor(OpClass::Load), ResourceKind::AnyFu);
    EXPECT_EQ(m.resourceFor(OpClass::Copy), ResourceKind::Bus);
}

TEST(MachineConfig, CustomLatencyOverride)
{
    auto m = MachineConfig::custom(2, {2, 2, 2, 0}, 1, 1, 64);
    m.setLatency(OpClass::FpAlu, 5);
    EXPECT_EQ(m.latency(OpClass::FpAlu), 5);
    EXPECT_EQ(m.latency(OpClass::Load), 2); // untouched
}

TEST(MachineConfig, SetLatencyRejectsOpClassOutsideTheClasses)
{
    // The latency table has one entry per op class: a class past the
    // last one would be written out of bounds.
    auto m = MachineConfig::custom(2, {2, 2, 2, 0}, 1, 1, 64);
    const auto latencies = [&] {
        std::vector<int> lat;
        for (int c = 0; c < static_cast<int>(OpClass::NumOpClasses); ++c)
            lat.push_back(m.latency(static_cast<OpClass>(c)));
        return lat;
    };
    const std::vector<int> before = latencies();
    EXPECT_INVALID_ARGUMENT(m.setLatency(OpClass::NumOpClasses, 3),
                            "op class 9 outside the op classes");
    EXPECT_INVALID_ARGUMENT(m.setLatency(static_cast<OpClass>(200), 3),
                            "op class 200 outside the op classes");
    EXPECT_EQ(latencies(), before);
    EXPECT_EQ(m.name(), "2c1b1l64r");
}

TEST(MachineConfig, AvailablePerKind)
{
    const auto m = MachineConfig::fromString("4c2b4l64r");
    EXPECT_EQ(m.available(ResourceKind::IntFu), 1);
    EXPECT_EQ(m.available(ResourceKind::Bus), 2);
    EXPECT_EQ(m.available(ResourceKind::AnyFu), 0);
}

TEST(MachineConfig, RejectsMalformedNames)
{
    EXPECT_INVALID_ARGUMENT(MachineConfig::fromString("garbage"),
                            "bad machine name 'garbage'");
    EXPECT_INVALID_ARGUMENT(MachineConfig::fromString("4c2b4l"),
                            "bad machine name '4c2b4l'");
    EXPECT_INVALID_ARGUMENT(MachineConfig::fromString("4c2b4l64rx"),
                            "trailing characters");
    EXPECT_INVALID_ARGUMENT(MachineConfig::fromString("unifiedx"),
                            "bad unified machine name");
    // A number too long for an int is a bad name, not std::out_of_range.
    EXPECT_INVALID_ARGUMENT(
        MachineConfig::fromString("99999999999c1b1l64r"),
        "bad machine name");
    EXPECT_INVALID_ARGUMENT(
        MachineConfig::fromString("unified99999999999r"),
        "bad unified machine name");
}

TEST(MachineConfig, RejectsBadShapes)
{
    // 3 clusters do not divide the 12-wide machine evenly.
    EXPECT_INVALID_ARGUMENT(MachineConfig::clustered(3, 1, 1, 63),
                            "does not evenly divide");
    // Registers must divide evenly.
    EXPECT_INVALID_ARGUMENT(MachineConfig::clustered(4, 1, 1, 63),
                            "not divisible by clusters");
    // A clustered machine needs buses of latency >= 1, whatever its
    // factory (without one, compile() would abort in the comms pass).
    EXPECT_INVALID_ARGUMENT(MachineConfig::clustered(4, 0, 1, 64),
                            "needs >=1 bus");
    EXPECT_INVALID_ARGUMENT(MachineConfig::clustered(4, 1, 0, 64),
                            "needs >=1 bus of latency >=1");
    EXPECT_INVALID_ARGUMENT(
        MachineConfig::custom(2, ClusterResources{2, 2, 2, 0}, 0, 1, 64),
        "needs >=1 bus");
    EXPECT_INVALID_ARGUMENT(MachineConfig::universal(2, 4, 0, 1, 64),
                            "needs >=1 bus");
    EXPECT_INVALID_ARGUMENT(
        MachineConfig::unified().setLatency(OpClass::Load, 0),
        "latency must be >= 1");
}

TEST(MachineConfig, RejectsFewerRegistersThanClusters)
{
    // Without this check such a machine compiled through dozens of II
    // attempts before giving up on register pressure.
    EXPECT_INVALID_ARGUMENT(
        MachineConfig::custom(2, ClusterResources{2, 2, 2, 0}, 1, 1, -64),
        "registers (-64) fewer than clusters (2)");
    EXPECT_INVALID_ARGUMENT(MachineConfig::clustered(2, 1, 2, 0),
                            "registers (0) fewer than clusters (2)");
    EXPECT_INVALID_ARGUMENT(MachineConfig::unified(0),
                            "registers (0) fewer than clusters (1)");
    EXPECT_INVALID_ARGUMENT(MachineConfig::fromString("2c1b2l0r"),
                            "registers (0) fewer than clusters (2)");
    EXPECT_INVALID_ARGUMENT(MachineConfig::universal(4, 3, 1, 1, 2),
                            "registers (2) fewer than clusters (4)");

    // One register per cluster is a machine.
    EXPECT_EQ(MachineConfig::fromString("4c1b2l4r").regsPerCluster(), 1);
    EXPECT_EQ(MachineConfig::unified(1).regsPerCluster(), 1);
}

TEST(MachineConfig, RejectsMoreUnitsThanOneByteIdsHold)
{
    // Cluster and bus ids are stored in one byte: 127 of each at most.
    const ClusterResources res{1, 1, 1, 0};
    EXPECT_INVALID_ARGUMENT(MachineConfig::custom(128, res, 1, 1, 128),
                            "cluster count 128");
    EXPECT_INVALID_ARGUMENT(MachineConfig::custom(2, res, 128, 1, 64),
                            "bus count 128");
    EXPECT_INVALID_ARGUMENT(MachineConfig::universal(128, 1, 1, 1, 128),
                            "cluster count 128");
    EXPECT_INVALID_ARGUMENT(MachineConfig::clustered(2, 128, 1, 64),
                            "bus count 128");

    const auto widest = MachineConfig::custom(127, res, 127, 1, 127);
    EXPECT_EQ(widest.numClusters(), 127);
    EXPECT_EQ(widest.numBuses(), 127);
}

} // namespace
} // namespace cvliw
