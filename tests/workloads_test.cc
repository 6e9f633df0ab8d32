/**
 * @file
 * Workload generator tests: suite size and composition, determinism,
 * structural sanity of generated loops and the per-benchmark
 * personality knobs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string_view>

#include "ddg/analysis.hh"
#include "expect_invalid.hh"
#include "support/fnv.hh"
#include "workloads/suite.hh"

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

/**
 * FNV-1a folded over little-endian 64-bit words in four interleaved
 * lanes (lane j hashes words j, j+4, ...), then the lanes, the
 * remainder bytes and the length: the function the pinned digests
 * below were recorded with.
 */
std::uint64_t
fnvDigest4Lane(const std::vector<unsigned char> &bytes)
{
    const auto word = [&](std::size_t at) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t{bytes[at + i]} << (8 * i);
        return v;
    };
    std::uint64_t lane[4] = {kFnv1aOffset, kFnv1aOffset + 1,
                             kFnv1aOffset + 2, kFnv1aOffset + 3};
    const std::size_t words = bytes.size() / 8;
    const std::size_t groups = words / 4;
    for (std::size_t g = 0; g < groups; ++g) {
        for (int j = 0; j < 4; ++j) {
            lane[j] ^= word(32 * g + 8 * j);
            lane[j] *= kFnv1aPrime;
        }
    }
    std::uint64_t h = kFnv1aOffset;
    const auto mix = [&](std::uint64_t v) {
        h ^= v;
        h *= kFnv1aPrime;
    };
    for (const std::uint64_t l : lane)
        mix(l);
    for (std::size_t i = groups * 4; i < words; ++i)
        mix(word(8 * i));
    for (std::size_t i = words * 8; i < bytes.size(); ++i)
        mix(bytes[i]);
    mix(bytes.size());
    return h;
}

/**
 * Digest of everything the generator emits, read through the graph's
 * public accessors: loop names and profiles, every field of every
 * node and edge slot, and raw in/out spans.
 */
std::uint64_t
contentDigest(const std::vector<Loop> &suite)
{
    std::vector<unsigned char> bytes;
    const auto put = [&](long long v) {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<unsigned char>(v >> (8 * i)));
    };
    const auto putStr = [&](std::string_view s) {
        put(static_cast<long long>(s.size()));
        bytes.insert(bytes.end(), s.begin(), s.end());
    };
    const auto putF64 = [&](double v) {
        long long bits;
        std::memcpy(&bits, &v, sizeof bits);
        put(bits);
    };
    for (const Loop &loop : suite) {
        putStr(loop.name());
        putF64(loop.profile.visits);
        putF64(loop.profile.avgIters);
        const Ddg &g = loop.ddg;
        put(g.numNodeSlots());
        put(g.numEdgeSlots());
        for (NodeId n = 0; n < g.numNodeSlots(); ++n) {
            const DdgNode &x = g.node(n);
            for (long long v :
                 {static_cast<long long>(x.semanticId),
                  static_cast<long long>(x.cls),
                  static_cast<long long>(x.isReplica),
                  static_cast<long long>(x.isSpill),
                  static_cast<long long>(x.liveOut),
                  static_cast<long long>(x.alive)})
                put(v);
            for (const EdgeSpan span :
                 {g.inEdgesRaw(n), g.outEdgesRaw(n)}) {
                put(span.size());
                for (EdgeId e : span)
                    put(e);
            }
        }
        for (EdgeId e = 0; e < g.numEdgeSlots(); ++e) {
            const DdgEdge &x = g.edge(e);
            for (long long v : {static_cast<long long>(x.src),
                                static_cast<long long>(x.dst),
                                static_cast<long long>(x.distance),
                                static_cast<long long>(x.memLatency),
                                static_cast<long long>(x.kind),
                                static_cast<long long>(x.alive)})
                put(v);
        }
    }
    return fnvDigest4Lane(bytes);
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

    // Pinned content of four seeds' suites, so any change to what the
    // generator emits shows here.
    const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
        {1, 0xba2c5bc66aa71f41ULL},
        {7, 0xdb0d84aafdef61a9ULL},
        {42, 0x0cd34df0121a61bfULL},
        {203, 0x937ee324c13e14caULL}};
    for (const auto &[seed, digest] : pinned) {
        EXPECT_EQ(contentDigest(buildSuite(seed)), digest)
            << "seed " << seed;
    }
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

// A loop rests as records, not as a graph with adjacency: a 32-byte
// name, the index, the 64-byte records handle and the profile.
static_assert(sizeof(Loop) == 120, "a loop holds records, not a Ddg");

TEST(Suite, LoopsRestAsRecordsThatOwnNothing)
{
    // Each loop's records are their own base: no delta, nothing owned
    // beyond the exactly-sized record arrays every compile converts.
    for (const Loop &loop : buildSuite(42)) {
        EXPECT_EQ(loop.ddg.ownedBytes(), 0u) << loop.name();
        EXPECT_NE(loop.ddg.generation(), 0u) << loop.name();
    }
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
    EXPECT_INVALID_ARGUMENT(buildBenchmark("nope"),
                            "unknown benchmark 'nope'");
}

TEST(Suite, LoopsAreStructurallySane)
{
    const auto suite = buildSuite();
    for (const Loop &loop : suite) {
        const Ddg g(loop.ddg);
        ASSERT_GE(g.numNodes(), 5) << loop.name();
        // Acyclic at distance 0 (topoOrder panics otherwise).
        EXPECT_EQ(topoOrder(g).size(),
                  static_cast<std::size_t>(g.numNodes()));
        // Every sink is a store or live-out (safe for dead-code
        // elimination after replication).
        for (NodeId n : g.nodes()) {
            const DdgNode &node = g.node(n);
            if (g.flowSuccs(n).empty()) {
                EXPECT_TRUE(node.cls == OpClass::Store ||
                            node.liveOut)
                    << loop.name() << " node n" << n;
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
        const Ddg g = l.ddg;
        std::vector<int> parent(g.numNodeSlots());
        for (std::size_t i = 0; i < parent.size(); ++i)
            parent[i] = static_cast<int>(i);
        std::function<int(int)> find = [&](int x) {
            return parent[x] == x ? x : parent[x] = find(parent[x]);
        };
        for (EdgeId eid : g.edges()) {
            const DdgEdge &e = g.edge(eid);
            parent[find(e.src)] = find(e.dst);
        }
        std::map<int, int> comps;
        for (NodeId n : g.nodes())
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
        const Ddg g = l.ddg;
        for (NodeId n : g.nodes()) {
            switch (categoryOf(g.node(n).cls)) {
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
