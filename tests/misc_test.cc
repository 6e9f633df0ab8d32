/**
 * @file
 * Coverage for the remaining public surfaces: Graphviz export, the
 * section-5.2 replication-mode comparison and logging.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/pipeline.hh"
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
    EXPECT_NE(out.find("label=\"n0\\nload\""), std::string::npos);
    EXPECT_NE(out.find("style=dashed"), std::string::npos); // mem edge
    EXPECT_NE(out.find("color=red"), std::string::npos); // carried
    EXPECT_NE(out.find("fillcolor"), std::string::npos); // clusters
}

TEST(Dot, MarksReplicas)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu);
    g.addReplica(a);
    std::ostringstream os;
    writeDot(os, g);
    EXPECT_NE(os.str().find("peripheries=2"), std::string::npos);
}

TEST(ModeComparison, MacroNodeCostsAtLeastAsMuch)
{
    // Compile communication-bound loops in both section-5.2 modes.
    // The paper's conclusion is an aggregate statement: per loop the
    // two modes may settle at different IIs with different
    // communication counts, so only the summed cost is compared.
    const auto loops = buildBenchmark("su2cor");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    PipelineOptions macro_opts;
    macro_opts.mode = ReplicationMode::MacroNode;
    long long min_replicas = 0, min_removed = 0;
    long long mac_replicas = 0, mac_removed = 0;
    for (std::size_t i = 0; i < 6 && i < loops.size(); ++i) {
        const CompileResult min_weight = compile(loops[i].ddg, m);
        const CompileResult macro = compile(loops[i].ddg, m, macro_opts);
        ASSERT_TRUE(min_weight.ok);
        ASSERT_TRUE(macro.ok);
        min_replicas += min_weight.repl.replicasAdded;
        min_removed += min_weight.repl.comsRemoved;
        mac_replicas += macro.repl.replicasAdded;
        mac_removed += macro.repl.comsRemoved;
        // The macro-node mode must never beat min-weight on II.
        EXPECT_GE(macro.ii, min_weight.ii) << loops[i].name();
    }
    ASSERT_GT(min_removed, 0);
    ASSERT_GT(mac_removed, 0);
    EXPECT_GE(static_cast<double>(mac_replicas) / mac_removed + 0.25,
              static_cast<double>(min_replicas) / min_removed);
}

TEST(Logging, WarningsAreCounted)
{
    // Every cv_warn prints and counts; cv_warn_once prints and counts
    // once per call site, however often it is reached.
    const auto warns0 = logging::warnCount();
    cv_warn("counted warn");
    EXPECT_EQ(logging::warnCount(), warns0 + 1);
    for (int i = 0; i < 3; ++i)
        cv_warn_once("once only ", i);
    EXPECT_EQ(logging::warnCount(), warns0 + 2);
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
