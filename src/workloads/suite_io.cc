#include "workloads/suite_io.hh"

#include <cstdlib>
#include <cstring>
#include "support/trace.hh"
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define CVLIW_SUITE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define CVLIW_SUITE_HAVE_MMAP 0
#endif

#include "support/fnv.hh"
#include "support/logging.hh"

// Baked-in cache location (the build directory's generated cache);
// overridable per-process with the CVLIW_SUITE_CACHE environment
// variable. Empty when the build system did not provide one.
#ifndef CVLIW_SUITE_CACHE_DEFAULT
#define CVLIW_SUITE_CACHE_DEFAULT ""
#endif

namespace cvliw
{

namespace
{

constexpr char kMagic[8] = {'C', 'V', 'S', 'U', 'I', 'T', 'E', '\0'};
// Version history: 1 = initial format (byte-serial word FNV digest);
// 2 = same layout, 4-lane interleaved word-FNV payload digest (the
// serial multiply chain was the bottleneck of cache opens); 3 = POD
// node/edge records matching DdgNode/DdgEdge byte-for-byte plus a
// per-record label blob, and per-record digests in the index table
// so opens validate only header + index and each record is verified
// lazily when touched.
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kEndianTag = 0x01020304u;

// Fixed header bytes before the index table (magic + version +
// endianTag + seed + loopCount + payloadSize + indexFnv).
constexpr std::uint64_t kHeaderBytes = 8 + 4 + 4 + 8 + 4 + 8 + 8;
// Index table entry: u64 record offset + u64 record digest.
constexpr std::uint64_t kIndexEntryBytes = 16;
// On-disk node/edge records are the in-memory PODs; ddg.hh's
// static_asserts pin the field offsets this file's validator reads.
constexpr std::size_t kNodeRecBytes = sizeof(DdgNode);
constexpr std::size_t kEdgeRecBytes = sizeof(DdgEdge);
static_assert(kNodeRecBytes == 24 && kEdgeRecBytes == 24,
              "suite v3 record layout drifted from the graph PODs");

// On little-endian hosts the wire format matches memory layout, so
// fixed-width fields load with a single memcpy; the shift-assembly
// fallback keeps big-endian hosts correct.
#if defined(__BYTE_ORDER__) &&                                          \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
constexpr bool kHostLittleEndian = true;
#else
constexpr bool kHostLittleEndian = false;
#endif

std::uint32_t
loadLe32(const unsigned char *p)
{
    if (kHostLittleEndian) {
        std::uint32_t v;
        std::memcpy(&v, p, sizeof(v));
        return v;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
loadLe64(const unsigned char *p)
{
    if (kHostLittleEndian) {
        std::uint64_t v;
        std::memcpy(&v, p, sizeof(v));
        return v;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

// The per-record payload digest is the shared 4-lane interleaved
// word-FNV from support/fnv.hh (it moved there so the result cache's
// persistent tier pins the identical function); this alias keeps the
// call sites readable.
constexpr auto payloadDigest = fnvDigest4Lane;

/** Append-only little-endian byte sink. */
struct Writer
{
    std::vector<unsigned char> bytes;

    void u8(std::uint8_t v) { bytes.push_back(v); }

    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back((v >> (8 * i)) & 0xff);
    }

    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back((v >> (8 * i)) & 0xff);
    }

    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }

    void f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes.insert(bytes.end(), s.begin(), s.end());
    }
};

/** Bounds-checked little-endian reader; throws instead of over-reading. */
struct Reader
{
    const unsigned char *data;
    std::size_t size;
    const std::string &path;
    std::size_t pos = 0;

    [[noreturn]] void fail(const std::string &what) const
    {
        throw SuiteIoError("suite cache '" + path + "': " + what);
    }

    void need(std::size_t n) const
    {
        if (size - pos < n) {
            fail("truncated (need " + std::to_string(n) +
                 " bytes at offset " + std::to_string(pos) +
                 ", have " + std::to_string(size - pos) + ")");
        }
    }

    std::uint8_t u8()
    {
        need(1);
        return data[pos++];
    }

    void skip(std::size_t n)
    {
        need(n);
        pos += n;
    }

    std::uint32_t u32()
    {
        need(4);
        const std::uint32_t v = loadLe32(data + pos);
        pos += 4;
        return v;
    }

    std::uint64_t u64()
    {
        need(8);
        const std::uint64_t v = loadLe64(data + pos);
        pos += 8;
        return v;
    }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str()
    {
        const std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
        return s;
    }

    /** Skip a length-prefixed string without materializing it. */
    void skipStr() { skip(u32()); }
};

/**
 * Write the v3 graph section: slot counts, POD node/edge records,
 * label arena. Shared verbatim between suite loop records and the
 * result cache's persistent tier (via suite_v3::appendGraph).
 *
 * Slot-level dump including tombstones, so removal history that
 * matters (dead slots between live ones) survives the round trip.
 * The node()/edge() accessors bounds-check only, so dead slots
 * are readable. Records are written field by field on every host
 * (not memcpy'd) so the bytes - and therefore the record digests -
 * are canonical: explicit little-endian fields and hard-zero
 * padding regardless of what the in-memory pad bytes hold.
 */
void
serializeGraph(Writer &w, const Ddg &g)
{
    const std::string_view labels = g.labelArena();
    w.u32(static_cast<std::uint32_t>(g.numNodeSlots()));
    w.u32(static_cast<std::uint32_t>(g.numEdgeSlots()));
    w.u32(static_cast<std::uint32_t>(labels.size()));
    for (NodeId id = 0; id < g.numNodeSlots(); ++id) {
        const DdgNode &n = g.node(id);
        w.i32(n.id);
        w.i32(n.semanticId);
        w.u32(n.labelOffset);
        w.u32(n.labelLen);
        w.u8(static_cast<std::uint8_t>(n.cls));
        w.u8(n.isReplica ? 1 : 0);
        w.u8(n.isSpill ? 1 : 0);
        w.u8(n.liveOut ? 1 : 0);
        w.u8(n.alive ? 1 : 0);
        w.u8(0);
        w.u8(0);
        w.u8(0);
    }
    for (EdgeId id = 0; id < g.numEdgeSlots(); ++id) {
        const DdgEdge &e = g.edge(id);
        w.i32(e.id);
        w.i32(e.src);
        w.i32(e.dst);
        w.i32(e.distance);
        w.i32(e.memLatency);
        w.u8(static_cast<std::uint8_t>(e.kind));
        w.u8(e.alive ? 1 : 0);
        w.u8(0);
        w.u8(0);
    }
    // Label arena verbatim: dead slots' label bytes (and any orphaned
    // bytes) ride along so the round trip is bit-identical.
    w.bytes.insert(w.bytes.end(), labels.begin(), labels.end());
}

void
serializeLoop(Writer &w, const Loop &loop)
{
    w.str(loop.benchmark);
    w.i32(loop.index);
    w.f64(loop.profile.visits);
    w.f64(loop.profile.avgIters);
    serializeGraph(w, loop.ddg);
}

/**
 * Parse one v3 graph section (the Ddg portion of a loop record, also
 * the graph portion of a result cache record via
 * suite_v3::parseGraph). Every field is validated HERE - this is the
 * only validation layer: the slots go to Ddg::fromSlotsTrusted,
 * which skips the graph layer's own consistency checks on the
 * strength of this function's guarantees. Any check removed here is
 * removed entirely; untrusted bytes must never reach the graph
 * unvalidated.
 *
 * The v3 records are the graph PODs byte-for-byte, so validation is
 * one sweep per array over the raw mapped bytes - a masked 64-bit
 * load covers the whole flag/enum/padding tail of a row (flag bytes
 * strictly 0/1, op class / edge kind in range, padding zero - the
 * bools the memcpy below materializes must never hold trap
 * representations) and plain unaligned u32 loads cover the
 * structural fields (endpoints, label slices, live-edge consistency)
 * in the same pass; degrees fall out of the edge sweep for free.
 * Only after a row is fully proven does anything typed exist: one
 * bulk memcpy per array on little-endian hosts - no per-node parse
 * loop and no per-node allocation. Big-endian hosts assemble the
 * same bytes field by field instead of the memcpy.
 */
Ddg
deserializeGraph(Reader &r)
{
    const std::uint32_t node_slots = r.u32();
    const std::uint32_t edge_slots = r.u32();
    const std::uint32_t label_bytes = r.u32();
    // One bounds check for the whole fixed-width remainder (64-bit
    // arithmetic: the three u32 counts cannot overflow it).
    const std::uint64_t fixed =
        static_cast<std::uint64_t>(node_slots) * kNodeRecBytes +
        static_cast<std::uint64_t>(edge_slots) * kEdgeRecBytes +
        label_bytes;
    if (static_cast<std::uint64_t>(r.size - r.pos) < fixed)
        r.need(static_cast<std::size_t>(fixed)); // uniform error text
    const unsigned char *nrec = r.data + r.pos;
    const unsigned char *erec = nrec + node_slots * kNodeRecBytes;
    const unsigned char *lrec = erec + edge_slots * kEdgeRecBytes;

    // --- Single validation sweep per array over the raw bytes. --------
    // One 64-bit load and two masks cover a row's whole tail: bytes
    // 16..23 of a node record are (cls, 4 flag bytes, 3 zero pads)
    // and bytes 16..23 of an edge record are (memLatency, kind,
    // alive, 2 zero pads). Flag bytes must be proven 0/1 BEFORE the
    // memcpy below materializes C++ bools from them (a byte > 1
    // would be a trap representation). The structural fields ride in
    // the same sweep as unaligned u32 loads - free on x86, and it
    // saves a second full pass over both arrays.
    for (std::uint32_t i = 0; i < node_slots; ++i) {
        const unsigned char *q = nrec + i * kNodeRecBytes;
        const std::uint64_t tail = loadLe64(q + 16);
        // Bits that may be set: cls (any byte), flags (bit 0 each).
        if ((tail & 0xffffff'fefefefe'00ull) != 0 ||
            (tail & 0xff) >=
                static_cast<std::uint8_t>(OpClass::NumOpClasses)) {
            r.fail("bad node flag/class/padding byte in record row " +
                   std::to_string(i));
        }
        // semanticId: unsigned compare folds the negative case (as a
        // u32 it exceeds any in-range slot count).
        const std::uint32_t sid = loadLe32(q + 4);
        if (sid >= node_slots) {
            r.fail("semantic id " +
                   std::to_string(static_cast<NodeId>(sid)) +
                   " outside the node array");
        }
        if (static_cast<std::uint64_t>(loadLe32(q + 8)) +
                loadLe32(q + 12) > label_bytes) {
            r.fail("label slice outside the label arena");
        }
    }
    // Degrees fall out of the edge sweep for free; they feed
    // Ddg::fromSlotsTrusted so the graph build skips its own
    // validation + degree pass. Thread-local scratch: deserializing a
    // suite record-by-record would otherwise pay two allocations per
    // record just for this transient.
    static thread_local std::vector<std::uint32_t> deg_scratch;
    deg_scratch.assign(2 * static_cast<std::size_t>(node_slots), 0);
    std::uint32_t *in_deg = deg_scratch.data();
    std::uint32_t *out_deg = in_deg + node_slots;
    for (std::uint32_t i = 0; i < edge_slots; ++i) {
        const unsigned char *q = erec + i * kEdgeRecBytes;
        const std::uint64_t tail = loadLe64(q + 16);
        // memLatency (bytes 0-3) is any i32; alive must be 0/1; the
        // two pad bytes must be zero; kind capped at the last enum.
        if ((tail & 0xfffffe'00'00000000ull) != 0 ||
            ((tail >> 32) & 0xff) >
                static_cast<std::uint8_t>(EdgeKind::Spill)) {
            r.fail("bad edge kind/flag/padding byte in record row " +
                   std::to_string(i));
        }
        const std::uint32_t src = loadLe32(q + 4);
        const std::uint32_t dst = loadLe32(q + 8);
        if (src >= node_slots || dst >= node_slots)
            r.fail("edge endpoint outside the node array");
        if (loadLe32(q + 12) >= 0x80000000u)
            r.fail("negative edge distance");
        if ((tail >> 40) & 0xff) { // alive (flag byte proven 0/1)
            const unsigned char *srow = nrec + src * kNodeRecBytes;
            if (srow[20] == 0 ||
                nrec[dst * kNodeRecBytes + 20] == 0) {
                r.fail("live edge on a dead node");
            }
            if (static_cast<EdgeKind>((tail >> 32) & 0xff) ==
                    EdgeKind::RegFlow &&
                !producesValue(static_cast<OpClass>(srow[16]))) {
                r.fail("flow edge from a non-value-producing op");
            }
        }
        ++out_deg[src];
        ++in_deg[dst];
    }

    // --- Bulk materialization of the fully-validated bytes. -----------
    // Little-endian hosts hand the mapped records to the graph as they
    // are: it copies each array once into its own storage, by memcpy,
    // which also sidesteps mmap alignment (records start at arbitrary
    // byte offsets). Big-endian hosts assemble host-layout slots field
    // by field first.
    const unsigned char *node_bytes = nrec;
    const unsigned char *edge_bytes = erec;
    std::vector<DdgNode> nodes;
    std::vector<DdgEdge> edges;
    if (!kHostLittleEndian) {
        nodes.resize(node_slots);
        edges.resize(edge_slots);
        for (std::uint32_t i = 0; i < node_slots; ++i) {
            const unsigned char *q = nrec + i * kNodeRecBytes;
            DdgNode &n = nodes[i];
            n.semanticId = static_cast<NodeId>(loadLe32(q + 4));
            n.labelOffset = loadLe32(q + 8);
            n.labelLen = loadLe32(q + 12);
            n.cls = static_cast<OpClass>(q[16]);
            n.isReplica = q[17] != 0;
            n.isSpill = q[18] != 0;
            n.liveOut = q[19] != 0;
            n.alive = q[20] != 0;
        }
        for (std::uint32_t i = 0; i < edge_slots; ++i) {
            const unsigned char *q = erec + i * kEdgeRecBytes;
            DdgEdge &e = edges[i];
            e.src = static_cast<NodeId>(loadLe32(q + 4));
            e.dst = static_cast<NodeId>(loadLe32(q + 8));
            e.distance = static_cast<std::int32_t>(loadLe32(q + 12));
            e.memLatency =
                static_cast<std::int32_t>(loadLe32(q + 16));
            e.kind = static_cast<EdgeKind>(q[20]);
            e.alive = q[21] != 0;
        }
        node_bytes = reinterpret_cast<const unsigned char *>(nodes.data());
        edge_bytes = reinterpret_cast<const unsigned char *>(edges.data());
    }
    const std::string_view labels(reinterpret_cast<const char *>(lrec),
                                  label_bytes);
    r.pos += static_cast<std::size_t>(fixed);

    // Everything above threw on the first inconsistency, which is
    // exactly the precondition the trusted bulk loader asks for
    // (fromSlotsTrusted re-derives the id fields, so the on-disk ids
    // need no validation of their own).
    return Ddg::fromSlotsTrusted(node_bytes, node_slots, edge_bytes,
                                 edge_slots, labels, in_deg, out_deg);
}

Loop
deserializeLoop(Reader &r)
{
    Loop loop;
    loop.benchmark = r.str();
    loop.index = r.i32();
    loop.profile.visits = r.f64();
    loop.profile.avgIters = r.f64();
    loop.ddg = deserializeGraph(r);
    return loop;
}

} // namespace

namespace suite_v3
{

void
appendGraph(std::vector<unsigned char> &out, const Ddg &g)
{
    Writer w;
    serializeGraph(w, g);
    out.insert(out.end(), w.bytes.begin(), w.bytes.end());
}

Ddg
parseGraph(const unsigned char *data, std::size_t size,
           std::size_t &pos, const std::string &context)
{
    Reader r{data, size, context};
    r.pos = pos;
    Ddg g = deserializeGraph(r);
    pos = r.pos;
    return g;
}

} // namespace suite_v3

void
saveSuite(const std::vector<Loop> &suite, const std::string &path,
          std::uint64_t seed)
{
    trace::TraceSpan span("suite", "save");
    span.arg("loops", static_cast<long long>(suite.size()));
    // Payload plus the per-loop index that makes records
    // independently addressable (parallel loading, random access) and
    // independently verifiable (lazy per-record digests).
    Writer payload;
    std::vector<std::uint64_t> offsets, digests;
    offsets.reserve(suite.size());
    digests.reserve(suite.size());
    for (const Loop &loop : suite) {
        const std::uint64_t off = payload.bytes.size();
        offsets.push_back(off);
        serializeLoop(payload, loop);
        digests.push_back(payloadDigest(payload.bytes.data() + off,
                                        payload.bytes.size() - off));
    }

    // The index table gets its own digest (verified at open) so a
    // flipped offset or record digest cannot silently redirect or
    // whitewash a record.
    Writer index;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        index.u64(offsets[i]);
        index.u64(digests[i]);
    }

    Writer out;
    out.bytes.insert(out.bytes.end(), kMagic, kMagic + sizeof(kMagic));
    out.u32(kVersion);
    out.u32(kEndianTag);
    out.u64(seed);
    out.u32(static_cast<std::uint32_t>(suite.size()));
    out.u64(payload.bytes.size());
    out.u64(payloadDigest(index.bytes.data(), index.bytes.size()));
    out.bytes.insert(out.bytes.end(), index.bytes.begin(),
                     index.bytes.end());
    out.bytes.insert(out.bytes.end(), payload.bytes.begin(),
                     payload.bytes.end());

    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        throw SuiteIoError("cannot open '" + path + "' for writing");
    f.write(reinterpret_cast<const char *>(out.bytes.data()),
            static_cast<std::streamsize>(out.bytes.size()));
    if (!f)
        throw SuiteIoError("short write to '" + path + "'");
}

/**
 * Open, validated suite cache bytes: everything loadSuite's header
 * pass used to compute, kept alive so records can be materialized
 * independently (lazily or in parallel).
 *
 * The backing storage is the file mmapped read-only where the
 * platform has mmap (zero-copy: records parse straight out of the
 * page cache, the untouched ones stay clean evictable file pages,
 * and concurrent opens of the same cache share physical memory) and
 * a plain slurp into an owned buffer otherwise - or when
 * CVLIW_SUITE_MMAP=0 forces the fallback. Every consumer reads
 * through data()/dataSize() and cannot tell the two apart.
 */
struct SuiteCacheFile::Impl
{
    std::vector<unsigned char> bytes; //!< slurp fallback storage
#if CVLIW_SUITE_HAVE_MMAP
    void *map = nullptr; //!< mmap base, or null when slurped
    std::size_t mapSize = 0;
#endif
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint64_t> digests; //!< per-record, from the index
    const unsigned char *payload = nullptr; //!< into data()
    std::uint64_t payloadSize = 0;
    std::uint32_t loopCount = 0;

    ~Impl()
    {
#if CVLIW_SUITE_HAVE_MMAP
        if (map)
            ::munmap(map, mapSize);
#endif
    }

    const unsigned char *data() const
    {
#if CVLIW_SUITE_HAVE_MMAP
        if (map)
            return static_cast<const unsigned char *>(map);
#endif
        return bytes.data();
    }

    std::size_t dataSize() const
    {
#if CVLIW_SUITE_HAVE_MMAP
        if (map)
            return mapSize;
#endif
        return bytes.size();
    }

    /**
     * Map @p path read-only. False on any failure (no mmap support,
     * empty file, unmappable file system): the caller slurps instead.
     */
    bool tryMap(const std::string &path)
    {
#if CVLIW_SUITE_HAVE_MMAP
        if (const char *env = std::getenv("CVLIW_SUITE_MMAP")) {
            if (env[0] == '0' && env[1] == '\0')
                return false;
        }
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            return false;
        struct stat st;
        if (::fstat(fd, &st) != 0 || st.st_size <= 0 ||
            !S_ISREG(st.st_mode)) {
            ::close(fd);
            return false;
        }
        void *m = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd); // the mapping holds its own file reference
        if (m == MAP_FAILED)
            return false;
        map = m;
        mapSize = static_cast<std::size_t>(st.st_size);
        return true;
#else
        (void)path;
        return false;
#endif
    }

    std::uint64_t recordEnd(std::uint32_t i) const
    {
        return i + 1 < loopCount ? offsets[i + 1] : payloadSize;
    }

    /**
     * Bounds-checked reader over one loop record, verified against
     * the record's index digest first - the lazy-validation contract:
     * exactly the bytes a consumer touches get integrity-checked,
     * exactly when first touched.
     */
    Reader record(std::uint32_t i, const std::string &path) const
    {
        const std::uint64_t begin = offsets[i];
        const std::uint64_t end = recordEnd(i);
        Reader r{payload + begin,
                 static_cast<std::size_t>(end - begin), path};
        if (payloadDigest(r.data, r.size) != digests[i]) {
            r.fail("record " + std::to_string(i) +
                   " digest mismatch (corrupted file)");
        }
        return r;
    }
};

SuiteCacheFile::SuiteCacheFile(const std::string &path)
    : impl_(new Impl), path_(path)
{
    Impl &im = *impl_;
    if (!im.tryMap(path)) {
        std::ifstream f(path, std::ios::binary | std::ios::ate);
        if (!f) {
            throw SuiteIoError("cannot open suite cache '" + path +
                               "'");
        }
        const std::streamsize size = f.tellg();
        f.seekg(0);
        im.bytes.resize(static_cast<std::size_t>(size));
        if (size > 0) {
            f.read(reinterpret_cast<char *>(im.bytes.data()), size);
            if (!f)
                throw SuiteIoError("short read from '" + path + "'");
        }
    }

    Reader r{im.data(), im.dataSize(), path_};
    r.need(sizeof(kMagic));
    if (std::memcmp(im.data(), kMagic, sizeof(kMagic)) != 0)
        r.fail("not a suite cache (bad magic)");
    r.pos = sizeof(kMagic);
    const std::uint32_t version = r.u32();
    if (version != kVersion) {
        r.fail("unsupported version " + std::to_string(version) +
               " (this build reads version " +
               std::to_string(kVersion) + ")");
    }
    if (r.u32() != kEndianTag)
        r.fail("foreign-endian file");
    seed_ = r.u64();
    im.loopCount = r.u32();
    const std::uint64_t payload_size = r.u64();
    const std::uint64_t index_digest = r.u64();

    // The header is not covered by the index digest, so bound the
    // index-table allocation by the actual file size before trusting
    // loopCount (a flipped header byte must fail cleanly, not OOM).
    if (static_cast<std::uint64_t>(im.loopCount) * kIndexEntryBytes >
        r.size - r.pos) {
        r.fail("loop count exceeds the file size");
    }
    // Verify the raw index bytes before parsing them: a flipped
    // offset or record digest must be caught here, at open, not
    // laundered into a "corrupt record" error later (or worse, a
    // whitewashed one).
    if (payloadDigest(im.data() + r.pos,
                      static_cast<std::size_t>(im.loopCount) *
                          kIndexEntryBytes) != index_digest) {
        r.fail("index digest mismatch (corrupted file)");
    }
    im.offsets.resize(im.loopCount);
    im.digests.resize(im.loopCount);
    for (std::uint32_t i = 0; i < im.loopCount; ++i) {
        im.offsets[i] = r.u64();
        im.digests[i] = r.u64();
        if (im.offsets[i] >= payload_size ||
            (i > 0 && im.offsets[i] <= im.offsets[i - 1]) ||
            (i == 0 && im.offsets[i] != 0)) {
            r.fail("corrupt loop offset table");
        }
    }

    im.payload = im.data() + r.pos;
    im.payloadSize = payload_size;
    if (im.dataSize() - r.pos != payload_size) {
        r.fail("payload size mismatch (header says " +
               std::to_string(payload_size) + ", file holds " +
               std::to_string(im.dataSize() - r.pos) + ")");
    }
    // No whole-payload digest pass: record digests are verified
    // lazily, each the first time its record is touched. An mmap'd
    // open therefore faults in only the header + index pages.
}

SuiteCacheFile::~SuiteCacheFile() = default;
SuiteCacheFile::SuiteCacheFile(SuiteCacheFile &&) noexcept = default;
SuiteCacheFile &
SuiteCacheFile::operator=(SuiteCacheFile &&) noexcept = default;

std::uint32_t
SuiteCacheFile::loopCount() const
{
    return impl_->loopCount;
}

Loop
SuiteCacheFile::loadLoop(std::uint32_t record) const
{
    const Impl &im = *impl_;
    if (record >= im.loopCount) {
        throw SuiteIoError("suite cache '" + path_ + "': record " +
                           std::to_string(record) +
                           " out of range (" +
                           std::to_string(im.loopCount) + " loops)");
    }
    Reader rec = im.record(record, path_);
    Loop loop = deserializeLoop(rec);
    if (rec.pos != rec.size)
        rec.fail("loop record has trailing bytes");
    return loop;
}

std::vector<SuiteLoopInfo>
SuiteCacheFile::scan() const
{
    const Impl &im = *impl_;
    std::vector<SuiteLoopInfo> infos(im.loopCount);
    for (std::uint32_t i = 0; i < im.loopCount; ++i) {
        // record() digest-verifies each record as the skim touches it
        // (scan reads every record, so this is a full-payload pass -
        // the price of returning facts about all of them).
        Reader rec = im.record(i, path_);
        SuiteLoopInfo &info = infos[i];
        info.benchmark = rec.str();
        info.index = rec.i32();
        rec.skip(16); // visits + avgIters
        const std::uint32_t node_slots = rec.u32();
        rec.skip(8); // edge slot + label byte counts
        rec.need(static_cast<std::size_t>(node_slots) *
                 kNodeRecBytes);
        // Fixed-stride records: the liveness byte sits at offset 20
        // of each 24-byte node record (see the DdgNode asserts).
        const unsigned char *q = rec.data + rec.pos;
        for (std::uint32_t n = 0; n < node_slots; ++n) {
            if (q[n * kNodeRecBytes + 20])
                ++info.liveNodes;
        }
    }
    return infos;
}

std::uint64_t
SuiteCacheFile::validatedBytesOnOpen() const
{
    return kHeaderBytes +
           static_cast<std::uint64_t>(impl_->loopCount) *
               kIndexEntryBytes;
}

std::uint64_t
SuiteCacheFile::recordBytes(std::uint32_t record) const
{
    const Impl &im = *impl_;
    if (record >= im.loopCount) {
        throw SuiteIoError("suite cache '" + path_ + "': record " +
                           std::to_string(record) +
                           " out of range (" +
                           std::to_string(im.loopCount) + " loops)");
    }
    return im.recordEnd(record) - im.offsets[record];
}

Loop
loadSuiteLoop(const std::string &path, std::uint32_t record)
{
    return SuiteCacheFile(path).loadLoop(record);
}

std::vector<Loop>
loadSuite(const std::string &path, std::uint64_t *seed_out)
{
    trace::TraceSpan span("suite", "load");
    const SuiteCacheFile file(path);
    span.arg("loops",
             static_cast<long long>(file.impl_->loopCount));
    const SuiteCacheFile::Impl &im = *file.impl_;
    const std::uint32_t loop_count = im.loopCount;

    std::vector<Loop> suite(loop_count);
    auto parseRange = [&](std::uint32_t lo, std::uint32_t hi) {
        for (std::uint32_t i = lo; i < hi; ++i) {
            Reader rec = im.record(i, path);
            suite[i] = deserializeLoop(rec);
            if (rec.pos != rec.size)
                rec.fail("loop record has trailing bytes");
        }
    };

    // Records are independent thanks to the offset table, so large
    // suites parse in parallel; each worker writes disjoint slots.
    // Spawn failures degrade gracefully: chunks whose thread never
    // started are parsed right here on the calling thread.
    const unsigned hw = std::thread::hardware_concurrency();
    const std::uint32_t per_worker = 128;
    std::uint32_t workers =
        std::min<std::uint32_t>(hw ? hw : 1,
                                loop_count / per_worker);
    if (workers > 1) {
        std::vector<std::thread> pool;
        std::exception_ptr error;
        std::mutex error_mutex;
        const std::uint32_t chunk = (loop_count + workers - 1) / workers;
        std::uint32_t spawned = 0;
        try {
            pool.reserve(workers);
            for (std::uint32_t w = 0; w < workers; ++w) {
                const std::uint32_t lo = w * chunk;
                const std::uint32_t hi =
                    std::min(loop_count, lo + chunk);
                pool.emplace_back([&, lo, hi]() {
                    try {
                        parseRange(lo, hi);
                    } catch (...) {
                        std::lock_guard<std::mutex> lock(error_mutex);
                        if (!error)
                            error = std::current_exception();
                    }
                });
                ++spawned;
            }
        } catch (...) {
            // Out of threads; fall through and parse the rest serially.
        }
        for (std::uint32_t i = spawned * chunk; i < loop_count;
             i += chunk) {
            parseRange(i, std::min(loop_count, i + chunk));
        }
        for (auto &t : pool)
            t.join();
        if (error)
            std::rethrow_exception(error);
    } else {
        parseRange(0, loop_count);
    }

    if (seed_out)
        *seed_out = file.seed();
    return suite;
}

std::string
defaultSuiteCachePath()
{
    if (const char *env = std::getenv("CVLIW_SUITE_CACHE"))
        return env;
    return CVLIW_SUITE_CACHE_DEFAULT;
}

std::vector<Loop>
loadOrBuildSuite(std::uint64_t seed)
{
    const std::string path = defaultSuiteCachePath();
    if (!path.empty() && std::ifstream(path).good()) {
        // Probe first: a build tree that never generated the cache
        // is normal and falls back silently; only a present-but-bad
        // cache warrants a warning.
        try {
            std::uint64_t cached_seed = 0;
            std::vector<Loop> suite = loadSuite(path, &cached_seed);
            if (cached_seed == seed)
                return suite;
            cv_inform("suite cache '", path, "' holds seed ",
                      cached_seed, ", wanted ", seed,
                      "; regenerating");
        } catch (const std::exception &err) {
            // SuiteIoError, or anything the parallel load surfaced
            // (e.g. bad_alloc): generation is always the safe answer,
            // but disk-tier rot must not look like a mysterious slow
            // start - name the file and the reason.
            cv_warn("ignoring suite cache '", path,
                    "': ", err.what(), "; regenerating suite");
        }
    }
    trace::TraceSpan span("suite", "build");
    span.arg("seed", static_cast<long long>(seed));
    return buildSuite(seed);
}

} // namespace cvliw
