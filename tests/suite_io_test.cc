/**
 * @file
 * Suite serialization tests (workloads/suite_io.hh): a save->load
 * round trip is bit-identical to the generated suite on every Loop
 * field (including tombstoned slots and adjacency order), the header
 * seed round-trips, and malformed files - truncated at any point,
 * corrupted payload bytes, bad magic, unsupported version, trailing
 * garbage - are rejected with a clear SuiteIoError instead of
 * undefined behaviour.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "support/fnv.hh"
#include "support/logging.hh"
#include "workloads/suite_io.hh"

namespace cvliw
{
namespace
{

/** Unique-ish temp path per test; removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + "cvliw_" + name)
    {
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

    std::vector<unsigned char> bytes() const
    {
        std::ifstream f(path_, std::ios::binary | std::ios::ate);
        std::vector<unsigned char> out(
            static_cast<std::size_t>(f.tellg()));
        f.seekg(0);
        f.read(reinterpret_cast<char *>(out.data()),
               static_cast<std::streamsize>(out.size()));
        return out;
    }

    void write(const std::vector<unsigned char> &bytes) const
    {
        std::ofstream f(path_, std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char *>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }

  private:
    std::string path_;
};

void
expectDdgIdentical(const Ddg &a, const Ddg &b)
{
    ASSERT_EQ(a.numNodeSlots(), b.numNodeSlots());
    ASSERT_EQ(a.numEdgeSlots(), b.numEdgeSlots());
    EXPECT_EQ(a.numNodes(), b.numNodes());
    EXPECT_EQ(a.numEdges(), b.numEdges());
    for (NodeId n = 0; n < a.numNodeSlots(); ++n) {
        const DdgNode &x = a.node(n);
        const DdgNode &y = b.node(n);
        EXPECT_EQ(x.cls, y.cls) << "node " << n;
        EXPECT_EQ(x.labelLen, y.labelLen) << "node " << n;
        EXPECT_EQ(a.label(n), b.label(n)) << "node " << n;
        EXPECT_EQ(x.semanticId, y.semanticId) << "node " << n;
        EXPECT_EQ(x.isReplica, y.isReplica) << "node " << n;
        EXPECT_EQ(x.isSpill, y.isSpill) << "node " << n;
        EXPECT_EQ(x.liveOut, y.liveOut) << "node " << n;
        EXPECT_EQ(x.alive, y.alive) << "node " << n;
        // Adjacency spans (tombstoned slots included) must hold the
        // same edge ids in the same insertion order.
        const EdgeSpan ai = a.inEdgesRaw(n), bi = b.inEdgesRaw(n);
        EXPECT_EQ(std::vector<EdgeId>(ai.begin(), ai.end()),
                  std::vector<EdgeId>(bi.begin(), bi.end()))
            << "node " << n;
        const EdgeSpan ao = a.outEdgesRaw(n), bo = b.outEdgesRaw(n);
        EXPECT_EQ(std::vector<EdgeId>(ao.begin(), ao.end()),
                  std::vector<EdgeId>(bo.begin(), bo.end()))
            << "node " << n;
    }
    for (EdgeId e = 0; e < a.numEdgeSlots(); ++e) {
        const DdgEdge &x = a.edge(e);
        const DdgEdge &y = b.edge(e);
        EXPECT_EQ(x.src, y.src) << "edge " << e;
        EXPECT_EQ(x.dst, y.dst) << "edge " << e;
        EXPECT_EQ(x.kind, y.kind) << "edge " << e;
        EXPECT_EQ(x.distance, y.distance) << "edge " << e;
        EXPECT_EQ(x.memLatency, y.memLatency) << "edge " << e;
        EXPECT_EQ(x.alive, y.alive) << "edge " << e;
    }
}

void
expectSuitesIdentical(const std::vector<Loop> &a,
                      const std::vector<Loop> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("loop " + std::to_string(i));
        EXPECT_EQ(a[i].benchmark, b[i].benchmark);
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].profile.visits, b[i].profile.visits);
        EXPECT_EQ(a[i].profile.avgIters, b[i].profile.avgIters);
        expectDdgIdentical(a[i].ddg, b[i].ddg);
    }
}

TEST(SuiteIo, RoundTripIsBitIdenticalToBuildSuite)
{
    const auto built = buildSuite(42);
    TempFile file("roundtrip.cvsuite");
    saveSuite(built, file.path(), 42);

    const auto loaded = loadSuite(file.path(), 42);
    expectSuitesIdentical(built, loaded);
    EXPECT_THROW(loadSuite(file.path(), 43), SuiteSeedMismatch);
}

TEST(SuiteIo, NonDefaultSeedRoundTrips)
{
    const auto built = buildBenchmark("mgrid", 7);
    TempFile file("seed7.cvsuite");
    saveSuite(built, file.path(), 7);

    const auto loaded = loadSuite(file.path(), 7);
    expectSuitesIdentical(built, loaded);
    EXPECT_THROW(loadSuite(file.path(), 42), SuiteSeedMismatch);
}

TEST(SuiteIo, TombstonesAndReplicasRoundTrip)
{
    // A loop with removal history and replica/spill/live-out flags -
    // shapes the generator never emits but the pipeline does.
    Loop loop;
    loop.benchmark = "custom";
    loop.index = 3;
    loop.profile.visits = 12.5;
    loop.profile.avgIters = 99.25;
    Ddg &g = loop.ddg;
    const NodeId a = g.addNode(OpClass::Load, "a");
    const NodeId b = g.addNode(OpClass::IntAlu, "b");
    const NodeId c = g.addNode(OpClass::FpMul, "c");
    const NodeId d = g.addNode(OpClass::Store, "d");
    const NodeId r = g.addReplica(b, ".r1");
    g.node(c).liveOut = true;
    g.node(a).isSpill = true;
    g.addEdge(a, b, EdgeKind::RegFlow, 0);
    const EdgeId bc = g.addEdge(b, c, EdgeKind::RegFlow, 1);
    g.addEdge(c, d, EdgeKind::RegFlow, 0);
    g.addEdge(a, d, EdgeKind::Memory, 2, 3);
    g.addEdge(a, r, EdgeKind::RegFlow, 0);
    g.addEdge(r, c, EdgeKind::Spill, 1);
    g.removeEdge(bc);
    g.removeNode(b); // dead slot between live ones

    TempFile file("tombstones.cvsuite");
    saveSuite({loop}, file.path(), 1234);
    const auto loaded = loadSuite(file.path());
    ASSERT_EQ(loaded.size(), 1u);
    expectSuitesIdentical({loop}, loaded);
}

/**
 * One loop whose graph holds every op class, all 16 combinations of
 * the node flags, every edge kind, both int16 memLatency extremes,
 * and dead node and edge slots.
 */
Loop
everyFieldLoop()
{
    Loop loop;
    loop.benchmark = "fields";
    loop.index = 0;
    Ddg &g = loop.ddg;
    // Node n has flag bits n and op class n % NumOpClasses.
    const int classes = static_cast<int>(OpClass::NumOpClasses);
    for (NodeId n = 0; n < 16; ++n) {
        g.addNode(static_cast<OpClass>(n % classes));
        g.node(n).isReplica = n & 1;
        g.node(n).isSpill = n & 2;
        g.node(n).liveOut = n & 4;
    }
    const NodeId ld = g.addNode(OpClass::Load, "ld");
    const NodeId st = g.addNode(OpClass::Store, "st");
    g.addEdge(ld, st, EdgeKind::RegFlow, 0);
    g.addEdge(st, ld, EdgeKind::Memory, 1, -32768);
    g.addEdge(ld, st, EdgeKind::Memory, 2, 32767);
    g.addEdge(st, ld, EdgeKind::Spill, 3);
    g.removeEdge(g.addEdge(ld, ld, EdgeKind::RegFlow, 1));
    g.addEdge(ld, 0, EdgeKind::Memory, 0, 7); // dies with node 0
    for (NodeId n = 0; n < 8; ++n)
        g.removeNode(n); // flag bit 3 (alive) clear
    return loop;
}

TEST(SuiteIo, EveryFieldValueRoundTrips)
{
    // Bit-field order is implementation-defined: this pins the v4
    // flag byte the writer emits to what the loader's memcpy makes of
    // it, for every flag combination.
    const Loop loop = everyFieldLoop();
    TempFile file("fields.cvsuite");
    saveSuite({loop}, file.path(), 5);
    const auto loaded = loadSuite(file.path(), 5);
    ASSERT_EQ(loaded.size(), 1u);
    expectSuitesIdentical({loop}, loaded);
    const Ddg &g = loaded[0].ddg;
    for (NodeId n = 0; n < 16; ++n) {
        const DdgNode &x = g.node(n);
        EXPECT_EQ(x.isReplica | x.isSpill << 1 | x.liveOut << 2 |
                      x.alive << 3,
                  n);
    }
    EXPECT_EQ(g.edge(1).memLatency, -32768);
    EXPECT_EQ(g.edge(2).memLatency, 32767);
    EXPECT_EQ(g.edge(3).kind, EdgeKind::Spill);
    EXPECT_FALSE(g.edge(4).alive);
    EXPECT_FALSE(g.edge(5).alive);
}

/**
 * A single-loop file's bytes with the record and index digests
 * re-stamped, so the loader's structural checks see an edit instead
 * of its digest check. The 44-byte header ends with the index digest;
 * the one 16-byte index entry holds the record offset and digest.
 */
void
restampSingleLoop(std::vector<unsigned char> &bytes)
{
    const auto put64 = [&](std::size_t at, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            bytes[at + i] = static_cast<unsigned char>(v >> (8 * i));
    };
    put64(52, fnvDigest4Lane(bytes.data() + 60, bytes.size() - 60));
    put64(36, fnvDigest4Lane(bytes.data() + 44, 16));
}

TEST(SuiteIo, RejectsBadFlagPaddingKindAndAliveBytes)
{
    // One re-stamped byte edit per check: the loader's own byte
    // checks, then each structural rule of Ddg::fromSlots. Every
    // rejection is a SuiteIoError naming the path, the check and the
    // row.
    const Loop loop = everyFieldLoop();
    TempFile file("badrow.cvsuite");
    saveSuite({loop}, file.path(), 5);
    const auto clean = file.bytes();
    // The record: name (u32 length + bytes), i32 index, two f64s and
    // three u32 counts precede the 16-byte node rows, then edge rows.
    const std::size_t nodes_at = 60 + 4 + loop.benchmark.size() + 32;
    const std::size_t edges_at =
        nodes_at + 16 * static_cast<std::size_t>(loop.ddg.numNodeSlots());
    struct Case
    {
        const char *what;
        std::size_t at;
        unsigned char value;
        const char *row;
        const char *check;
    };
    // Node row 9 (flags 0x9, semantic id 9), edge row 1 (a live
    // Memory edge st -> ld) and edge row 2 (a live Memory edge
    // ld -> st, distance 2). Ids and distances are little-endian i32s:
    // byte 3 = 0x80 makes one negative.
    const std::size_t node9 = nodes_at + 16 * 9;
    const std::size_t edge1 = edges_at + 16, edge2 = edges_at + 16 * 2;
    const char *in_node9 = "node record row 9";
    const char *in_edge1 = "edge record row 1";
    const char *in_edge2 = "edge record row 2";
    const auto reg_flow = static_cast<unsigned char>(EdgeKind::RegFlow);
    const Case cases[] = {
        {"node flag bit 4", node9 + 13, 0x19, in_node9, "padding"},
        {"node flag bit 7", node9 + 13, 0x89, in_node9, "padding"},
        {"node pad byte 14", node9 + 14, 1, in_node9, "padding"},
        {"node pad byte 15", node9 + 15, 0x80, in_node9, "padding"},
        {"edge kind above Spill", edge2 + 14, 3, in_edge2, "kind/alive"},
        {"edge alive byte 2", edge2 + 15, 2, in_edge2, "kind/alive"},
        {"negative semantic id", node9 + 3, 0x80, in_node9,
         "semantic id"},
        {"label offset past the arena", node9 + 7, 1, in_node9,
         "label slice"},
        {"negative edge source", edge2 + 3, 0x80, in_edge2,
         "endpoint outside the node array"},
        {"negative distance", edge2 + 11, 0x80, in_edge2,
         "negative distance"},
        {"live edge into dead node 3", edge2 + 4, 3, in_edge2,
         "live edge on a dead node"},
        {"flow edge from a store", edge1 + 14, reg_flow, in_edge1,
         "flow edge from a non-value-producing op"},
    };

    auto restamped = clean;
    restampSingleLoop(restamped);
    ASSERT_EQ(restamped, clean) << "the re-stamp must match saveSuite";
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        auto bytes = clean;
        ASSERT_NE(bytes[c.at], c.value);
        bytes[c.at] = c.value;
        restampSingleLoop(bytes);
        file.write(bytes);
        try {
            loadSuite(file.path());
            ADD_FAILURE() << "accepted";
        } catch (const SuiteIoError &err) {
            const std::string what = err.what();
            EXPECT_NE(what.find(file.path()), std::string::npos) << what;
            EXPECT_NE(what.find(c.row), std::string::npos) << what;
            EXPECT_NE(what.find(c.check), std::string::npos) << what;
        }
    }
}

TEST(SuiteIo, SaveLoadSaveIsByteIdentical)
{
    // The v4 records are the in-memory PODs and the label arena is
    // written verbatim (dead-slot label bytes included), so a loaded
    // suite re-serializes to the exact same bytes.
    auto suite = buildBenchmark("applu");
    Loop custom;
    custom.benchmark = "custom";
    custom.index = 1;
    Ddg &g = custom.ddg;
    const NodeId a = g.addNode(OpClass::Load, "a");
    const NodeId b = g.addNode(OpClass::IntAlu, "b");
    const NodeId c = g.addNode(OpClass::Store, "c");
    const NodeId r = g.addReplica(b, ".r1");
    g.addEdge(a, b, EdgeKind::RegFlow, 0);
    g.addEdge(b, c, EdgeKind::RegFlow, 0);
    g.addEdge(a, r, EdgeKind::RegFlow, 0);
    g.removeNode(b); // dead slot keeps its label bytes in the arena
    suite.push_back(std::move(custom));

    TempFile first("ident1.cvsuite");
    saveSuite(suite, first.path(), 42);
    const auto loaded = loadSuite(first.path());
    TempFile second("ident2.cvsuite");
    saveSuite(loaded, second.path(), 42);
    EXPECT_EQ(first.bytes(), second.bytes());
}

TEST(SuiteIo, RejectsMissingFile)
{
    // A missing path and a directory (not a regular file) both fail
    // as a SuiteIoError that names the path.
    for (const std::string &path :
         {std::string("/nonexistent/no/such.cvsuite"),
          ::testing::TempDir()}) {
        try {
            loadSuite(path);
            ADD_FAILURE() << "'" << path << "' was accepted";
        } catch (const SuiteIoError &err) {
            EXPECT_NE(std::string(err.what()).find(path),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(SuiteIo, RejectsTruncationAtEveryRegion)
{
    const auto built = buildBenchmark("applu");
    TempFile file("trunc.cvsuite");
    saveSuite(built, file.path(), 42);
    const auto bytes = file.bytes();

    // Mid-magic, mid-header, mid-offset-table, mid-payload, one byte
    // short of complete.
    for (std::size_t cut :
         {std::size_t{3}, std::size_t{17}, std::size_t{50},
          bytes.size() / 2, bytes.size() - 1}) {
        ASSERT_LT(cut, bytes.size());
        TempFile cut_file("trunc_cut.cvsuite");
        cut_file.write(std::vector<unsigned char>(
            bytes.begin(),
            bytes.begin() + static_cast<std::ptrdiff_t>(cut)));
        EXPECT_THROW(loadSuite(cut_file.path()), SuiteIoError)
            << "cut at " << cut;
    }
}

TEST(SuiteIo, RejectsCorruptedPayload)
{
    const auto built = buildBenchmark("applu");
    ASSERT_GE(built.size(), 2u);
    TempFile file("corrupt.cvsuite");
    saveSuite(built, file.path(), 42);
    const auto clean = file.bytes();

    // The 44-byte header is followed by a 16-byte index entry per
    // loop (u64 offset, u64 digest), then the records.
    const std::size_t index_start = 44;
    const std::size_t payload_start = index_start + 16 * built.size();
    std::size_t record1 = 0; // offset of record 1 = size of record 0
    for (int b = 0; b < 8; ++b) {
        record1 |= static_cast<std::size_t>(clean[index_start + 16 + b])
                   << (8 * b);
    }

    // One flipped bit deep in the payload, in the middle of the first
    // record, and in record 1's offset in the index table: a digest
    // catches each.
    for (std::size_t at :
         {clean.size() - 20, payload_start + record1 / 2,
          index_start + 16 + 2}) {
        auto bytes = clean;
        bytes[at] ^= 0x10;
        file.write(bytes);
        try {
            loadSuite(file.path());
            ADD_FAILURE() << "bit flip at byte " << at << " was accepted";
        } catch (const SuiteIoError &err) {
            EXPECT_NE(std::string(err.what()).find("digest"),
                      std::string::npos)
                << "byte " << at << ": " << err.what();
        }
    }
}

TEST(SuiteIo, RejectsBadMagicAndWrongVersion)
{
    const auto built = buildBenchmark("applu");
    TempFile file("magic.cvsuite");
    saveSuite(built, file.path(), 42);

    auto bad_magic = file.bytes();
    bad_magic[0] = 'X';
    file.write(bad_magic);
    try {
        loadSuite(file.path());
        FAIL() << "bad magic was accepted";
    } catch (const SuiteIoError &err) {
        EXPECT_NE(std::string(err.what()).find("magic"),
                  std::string::npos)
            << err.what();
    }

    saveSuite(built, file.path(), 42);
    auto bad_version = file.bytes();
    bad_version[8] = 0x7f; // version field follows the 8-byte magic
    file.write(bad_version);
    try {
        loadSuite(file.path());
        FAIL() << "future version was accepted";
    } catch (const SuiteIoError &err) {
        EXPECT_NE(std::string(err.what()).find("version"),
                  std::string::npos)
            << err.what();
    }
}

TEST(SuiteIo, RejectsStaleV3CacheAndRegenerates)
{
    // A build tree upgraded across the v3 -> v4 format bump keeps its
    // old cache on disk until the next cache regeneration. The reader
    // must reject it with the path and both versions (so the log is
    // actionable), and loadOrBuildSuite must fall back to generation.
    const auto built = buildBenchmark("applu");
    TempFile file("stale_v3.cvsuite");
    saveSuite(built, file.path(), 42);
    auto bytes = file.bytes();
    bytes[8] = 0x03; // version field follows the 8-byte magic
    file.write(bytes);

    try {
        loadSuite(file.path());
        FAIL() << "stale v3 cache was accepted";
    } catch (const SuiteIoError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("version 3"), std::string::npos) << what;
        EXPECT_NE(what.find("version 4"), std::string::npos) << what;
        EXPECT_NE(what.find(file.path()), std::string::npos) << what;
    }

    setenv("CVLIW_SUITE_CACHE", file.path().c_str(), 1);
    const auto suite = loadOrBuildSuite(42);
    unsetenv("CVLIW_SUITE_CACHE");
    EXPECT_EQ(suite.size(), buildSuite(42).size());
}

TEST(SuiteIo, RejectsHugeHeaderLoopCount)
{
    // The header is outside the payload digest; a flipped high byte
    // of loopCount must fail cleanly before the offset-table
    // allocation, not OOM.
    const auto built = buildBenchmark("applu");
    TempFile file("loopcount.cvsuite");
    saveSuite(built, file.path(), 42);
    auto bytes = file.bytes();
    // loopCount sits after magic(8) + version(4) + endian(4) + seed(8).
    bytes[24 + 3] = 0xff;
    file.write(bytes);
    try {
        loadSuite(file.path());
        FAIL() << "absurd loop count was accepted";
    } catch (const SuiteIoError &err) {
        EXPECT_NE(std::string(err.what()).find("loop count"),
                  std::string::npos)
            << err.what();
    }
}

TEST(SuiteIo, RejectsTrailingGarbage)
{
    const auto built = buildBenchmark("applu");
    TempFile file("trailing.cvsuite");
    saveSuite(built, file.path(), 42);
    auto bytes = file.bytes();
    bytes.push_back(0xab);
    file.write(bytes);
    EXPECT_THROW(loadSuite(file.path()), SuiteIoError);
}

TEST(SuiteIo, LoadOrBuildFallsBackOnBadCache)
{
    TempFile file("badcache.cvsuite");
    file.write({'n', 'o', 't', ' ', 'a', ' ', 'c', 'a', 'c', 'h', 'e'});
    setenv("CVLIW_SUITE_CACHE", file.path().c_str(), 1);
    const auto suite = loadOrBuildSuite(42);
    unsetenv("CVLIW_SUITE_CACHE");
    EXPECT_EQ(suite.size(), buildSuite(42).size());
}

TEST(SuiteIo, LoadOrBuildUsesEnvCache)
{
    const auto built = buildSuite(42);
    TempFile file("envcache.cvsuite");
    saveSuite(built, file.path(), 42);
    setenv("CVLIW_SUITE_CACHE", file.path().c_str(), 1);
    const auto suite = loadOrBuildSuite(42);
    unsetenv("CVLIW_SUITE_CACHE");
    expectSuitesIdentical(built, suite);
}

TEST(SuiteIo, LoadOrBuildRegeneratesOnSeedMismatch)
{
    const auto built42 = buildSuite(42);
    const auto built9 = buildSuite(9);
    TempFile file("seedmismatch.cvsuite");
    saveSuite(built42, file.path(), 42);
    auto corrupt = file.bytes();
    // One bit in record 0, which follows the 44-byte header and the
    // 16-byte index entries.
    corrupt[44 + 16 * built42.size() + 20] ^= 0x10;
    // Asking for seed 9 must regenerate, not return the cached 42.
    // The seed is compared in the header, before any record is read,
    // so a corrupt record of the seed-42 file goes unnoticed: no
    // warning.
    for (bool corrupt_record : {false, true}) {
        SCOPED_TRACE(corrupt_record ? "corrupt record 0" : "clean file");
        if (corrupt_record)
            file.write(corrupt);
        setenv("CVLIW_SUITE_CACHE", file.path().c_str(), 1);
        const std::uint64_t warns = logging::warnCount();
        const auto suite = loadOrBuildSuite(9);
        EXPECT_EQ(logging::warnCount(), warns);
        unsetenv("CVLIW_SUITE_CACHE");
        expectSuitesIdentical(built9, suite);
    }
}

} // namespace
} // namespace cvliw
