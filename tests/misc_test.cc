/**
 * @file
 * Coverage for the remaining public surfaces: Graphviz export, the
 * section-5.2 ModeComparison helper and logging verbosity.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/macronode.hh"
#include "ddg/builder.hh"
#include "ddg/dot.hh"
#include "support/logging.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

TEST(Dot, ContainsNodesEdgesAndClusters)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("f", OpClass::FpAlu, {"ld"});
    b.flow("f", "f", 2);
    b.op("st", OpClass::Store, {"f"});
    b.mem("st", "ld", 1);
    const Ddg g = b.graph();

    std::ostringstream os;
    writeDot(os, g, {0, 1, 0});
    const std::string out = os.str();
    EXPECT_NE(out.find("digraph"), std::string::npos);
    EXPECT_NE(out.find("ld"), std::string::npos);
    EXPECT_NE(out.find("style=dashed"), std::string::npos); // mem edge
    EXPECT_NE(out.find("color=red"), std::string::npos); // carried
    EXPECT_NE(out.find("fillcolor"), std::string::npos); // clusters
}

TEST(Dot, MarksReplicas)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu, "a");
    g.addReplica(a, ".r1");
    std::ostringstream os;
    writeDot(os, g);
    EXPECT_NE(os.str().find("peripheries=2"), std::string::npos);
}

TEST(ModeComparison, MacroNodeCostsAtLeastAsMuch)
{
    // Run the section-5.2 helper on a communication-bound loop.
    // The paper's conclusion is an aggregate statement: per loop the
    // two modes may settle at different IIs with different
    // communication counts, so only the summed cost is compared.
    const auto loops = buildBenchmark("su2cor");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    long long min_replicas = 0, min_removed = 0;
    long long mac_replicas = 0, mac_removed = 0;
    for (std::size_t i = 0; i < 6 && i < loops.size(); ++i) {
        const auto cmp = compareReplicationModes(loops[i].ddg, m);
        ASSERT_TRUE(cmp.minWeight.ok);
        ASSERT_TRUE(cmp.macroNode.ok);
        min_replicas += cmp.minWeight.repl.replicasAdded;
        min_removed += cmp.minWeight.repl.comsRemoved;
        mac_replicas += cmp.macroNode.repl.replicasAdded;
        mac_removed += cmp.macroNode.repl.comsRemoved;
        // The macro-node mode must never beat min-weight on II.
        EXPECT_GE(cmp.macroNode.ii, cmp.minWeight.ii)
            << loops[i].name();
    }
    ASSERT_GT(min_removed, 0);
    ASSERT_GT(mac_removed, 0);
    EXPECT_GE(static_cast<double>(mac_replicas) / mac_removed + 0.25,
              static_cast<double>(min_replicas) / min_removed);
}

TEST(Logging, VerbositySwitch)
{
    // inform() must be silent by default and must not crash when
    // enabled.
    setVerboseLogging(true);
    cv_inform("coverage message ", 42);
    setVerboseLogging(false);
    cv_inform("suppressed");
    SUCCEED();
}

TEST(Logging, LevelsAndCallCounting)
{
    // Every cv_warn/cv_inform *call* is counted, printed or not:
    // suppressed messages count too.
    const auto warns0 = logging::warnCount();
    const auto informs0 = logging::informCount();
    logging::setLevel(logging::Level::Silent);
    cv_warn("suppressed warn");
    cv_inform("suppressed inform");
    EXPECT_EQ(logging::warnCount(), warns0 + 1);
    EXPECT_EQ(logging::informCount(), informs0 + 1);

    logging::setLevel(logging::Level::Info);
    EXPECT_EQ(logging::level(), logging::Level::Info);
    cv_inform("printed inform");
    EXPECT_EQ(logging::informCount(), informs0 + 2);

    // cv_warn_once fires its warn once; repeats count as calls.
    for (int i = 0; i < 3; ++i)
        cv_warn_once("once only ", i);
    EXPECT_EQ(logging::warnCount(), warns0 + 4);

    logging::setLevel(logging::Level::Warn); // restore the default
}

TEST(Logging, AssertPassesOnTrue)
{
    cv_assert(1 + 1 == 2, "arithmetic works");
    SUCCEED();
}

using LoggingDeathTest = ::testing::Test;

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(cv_panic("boom ", 7), "boom 7");
}

TEST(LoggingDeathTest, AssertAborts)
{
    EXPECT_DEATH(cv_assert(false, "ctx"), "assertion failed");
}

} // namespace
} // namespace cvliw
