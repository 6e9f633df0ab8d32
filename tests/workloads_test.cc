/**
 * @file
 * Workload generator tests: suite size and composition, determinism,
 * structural sanity of generated loops and the per-benchmark
 * personality knobs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

#include "ddg/analysis.hh"
#include "support/fnv.hh"
#include "workloads/suite_io.hh"

namespace cvliw
{
namespace
{

TEST(Profiles, PaperSuiteSize)
{
    // The paper evaluates 678 modulo-schedulable SPECfp95 loops.
    EXPECT_EQ(totalSuiteLoops(), 678);
    EXPECT_EQ(specFp95Profiles().size(), 10u);
}

TEST(Profiles, BenchmarkNames)
{
    const char *expected[] = {"tomcatv", "swim",   "su2cor",
                              "hydro2d", "mgrid",  "applu",
                              "turb3d",  "apsi",   "fpppp",
                              "wave5"};
    const auto &profiles = specFp95Profiles();
    ASSERT_EQ(profiles.size(), 10u);
    for (std::size_t i = 0; i < profiles.size(); ++i)
        EXPECT_EQ(profiles[i].name, expected[i]);
}

TEST(Suite, Deterministic)
{
    const auto s1 = buildSuite(42);
    const auto s2 = buildSuite(42);
    ASSERT_EQ(s1.size(), s2.size());
    for (std::size_t i = 0; i < s1.size(); ++i) {
        EXPECT_EQ(s1[i].ddg.numNodes(), s2[i].ddg.numNodes());
        EXPECT_EQ(s1[i].ddg.numEdges(), s2[i].ddg.numEdges());
        EXPECT_EQ(s1[i].profile.visits, s2[i].profile.visits);
        EXPECT_EQ(s1[i].profile.avgIters, s2[i].profile.avgIters);
    }

    // Pinned bytes: the digest of four seeds' saved suites, which
    // hold every node and edge slot, label and profile, so any change
    // to what the generator emits shows here.
    const std::string path =
        ::testing::TempDir() + "cvliw_deterministic.cvsuite";
    const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
        {1, 0xd952d0e65bff870cULL},
        {7, 0x1321e8f06fd39854ULL},
        {42, 0x55a187e253b17188ULL},
        {203, 0x734ca692c97c3275ULL}};
    for (const auto &[seed, digest] : pinned) {
        saveSuite(buildSuite(seed), path, seed);
        std::ifstream f(path, std::ios::binary);
        const std::vector<unsigned char> bytes(
            (std::istreambuf_iterator<char>(f)),
            std::istreambuf_iterator<char>());
        EXPECT_EQ(fnvDigest4Lane(bytes.data(), bytes.size()), digest)
            << "seed " << seed;
    }
    std::remove(path.c_str());
}

TEST(Suite, DifferentSeedsDiffer)
{
    const auto s1 = buildSuite(42);
    const auto s2 = buildSuite(43);
    int different = 0;
    for (std::size_t i = 0; i < s1.size(); ++i)
        different += (s1[i].ddg.numNodes() != s2[i].ddg.numNodes());
    EXPECT_GT(different, 100);
}

TEST(Suite, SizeIs678)
{
    EXPECT_EQ(buildSuite().size(), 678u);
}

TEST(Suite, BenchmarkSubsetMatchesFullSuite)
{
    const auto all = buildSuite(42);
    const auto mgrid = buildBenchmark("mgrid", 42);
    ASSERT_FALSE(mgrid.empty());
    // Find mgrid's segment in the full suite: identical graphs.
    std::size_t off = 0;
    while (off < all.size() && all[off].benchmark != "mgrid")
        ++off;
    ASSERT_LT(off, all.size());
    for (std::size_t i = 0; i < mgrid.size(); ++i) {
        EXPECT_EQ(all[off + i].ddg.numNodes(),
                  mgrid[i].ddg.numNodes());
    }
}

TEST(Suite, LoopsAreStructurallySane)
{
    const auto suite = buildSuite();
    for (const Loop &loop : suite) {
        ASSERT_GE(loop.ddg.numNodes(), 5) << loop.name();
        // Acyclic at distance 0 (topoOrder panics otherwise).
        EXPECT_EQ(topoOrder(loop.ddg).size(),
                  static_cast<std::size_t>(loop.ddg.numNodes()));
        // Every sink is a store or live-out (safe for dead-code
        // elimination after replication).
        for (NodeId n : loop.ddg.nodes()) {
            const DdgNode &node = loop.ddg.node(n);
            if (loop.ddg.flowSuccs(n).empty()) {
                EXPECT_TRUE(node.cls == OpClass::Store ||
                            node.liveOut)
                    << loop.name() << " node "
                    << loop.ddg.label(n);
            }
        }
        EXPECT_GE(loop.profile.visits, 1.0);
        EXPECT_GE(loop.profile.avgIters, 1.0);
    }
}

TEST(Suite, AppluHasTinyTripCounts)
{
    // Section 4: applu's hot loops run ~4 iterations per visit.
    const auto applu = buildBenchmark("applu");
    double sum = 0;
    for (const Loop &l : applu)
        sum += l.profile.avgIters;
    const double avg = sum / applu.size();
    EXPECT_LT(avg, 8.0);
    EXPECT_GE(avg, 2.0);

    const auto swim = buildBenchmark("swim");
    double swim_sum = 0;
    for (const Loop &l : swim)
        swim_sum += l.profile.avgIters;
    EXPECT_GT(swim_sum / swim.size(), 100.0);
}

TEST(Suite, MgridIsSeparable)
{
    // mgrid loops decompose into several weakly-connected
    // components, which is why clustering barely hurts it (Fig. 8).
    const auto mgrid = buildBenchmark("mgrid");
    int with_many_components = 0;
    for (const Loop &l : mgrid) {
        // Count weakly-connected components via union-find over all
        // edges.
        std::vector<int> parent(l.ddg.numNodeSlots());
        for (std::size_t i = 0; i < parent.size(); ++i)
            parent[i] = static_cast<int>(i);
        std::function<int(int)> find = [&](int x) {
            return parent[x] == x ? x : parent[x] = find(parent[x]);
        };
        for (EdgeId eid : l.ddg.edges()) {
            const DdgEdge &e = l.ddg.edge(eid);
            parent[find(e.src)] = find(e.dst);
        }
        std::map<int, int> comps;
        for (NodeId n : l.ddg.nodes())
            ++comps[find(n)];
        if (comps.size() >= 3)
            ++with_many_components;
    }
    EXPECT_GT(with_many_components,
              static_cast<int>(mgrid.size()) / 2);
}

TEST(Suite, OpMixIsFloatingPointish)
{
    const auto suite = buildSuite();
    long long mem = 0, intops = 0, fp = 0, total = 0;
    for (const Loop &l : suite) {
        for (NodeId n : l.ddg.nodes()) {
            switch (categoryOf(l.ddg.node(n).cls)) {
              case OpCategory::Mem: ++mem; break;
              case OpCategory::Int: ++intops; break;
              case OpCategory::Fp:  ++fp; break;
              default: break;
            }
            ++total;
        }
    }
    EXPECT_GT(static_cast<double>(fp) / total, 0.30);
    EXPECT_GT(static_cast<double>(mem) / total, 0.15);
    EXPECT_GT(static_cast<double>(intops) / total, 0.15);
}

TEST(Suite, FppppHasLargeBodies)
{
    const auto fpppp = buildBenchmark("fpppp");
    double sum = 0;
    for (const Loop &l : fpppp)
        sum += l.ddg.numNodes();
    EXPECT_GT(sum / fpppp.size(), 60.0);
}

} // namespace
} // namespace cvliw
