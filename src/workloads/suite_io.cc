#include "workloads/suite_io.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
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

#include "support/cpus.hh"
#include "support/fnv.hh"
#include "support/logging.hh"
#include "support/trace.hh"

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
// per-record label blob, and per-record digests in the index table.
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kEndianTag = 0x01020304u;

// Index table entry: u64 record offset + u64 record digest.
constexpr std::uint64_t kIndexEntryBytes = 16;
// On-disk node/edge records are the in-memory PODs; ddg.hh's
// static_asserts pin the field offsets this file's validator reads.
constexpr std::size_t kNodeRecBytes = sizeof(DdgNode);
constexpr std::size_t kEdgeRecBytes = sizeof(DdgEdge);
static_assert(kNodeRecBytes == 24 && kEdgeRecBytes == 24,
              "suite v3 record layout drifted from the graph PODs");

// The loader reads the little-endian wire format with plain memcpy
// loads and hands the records to the graph as they are, so it runs
// on little-endian hosts only; elsewhere loadSuite throws and
// loadOrBuildSuite generates the suite.
#if defined(__BYTE_ORDER__) &&                                          \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
constexpr bool kHostLittleEndian = true;
#else
constexpr bool kHostLittleEndian = false;
#endif

std::uint32_t
loadLe32(const unsigned char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t
loadLe64(const unsigned char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

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
};

/**
 * Write the v3 graph section of a loop record: slot counts, POD
 * node/edge records, label arena.
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
 * Parse one v3 graph section (the Ddg portion of a loop record).
 * Every field is validated HERE - this is the
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
 * bulk memcpy per array - no per-node parse loop and no per-node
 * allocation.
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

    // Everything above threw on the first inconsistency, which is
    // exactly the precondition the trusted bulk loader asks for. It
    // memcpys each mapped array into the graph's own storage (records
    // start at arbitrary byte offsets, so nothing is read in place)
    // and re-derives the id fields, so the on-disk ids need no
    // validation of their own.
    r.pos += static_cast<std::size_t>(fixed);
    return Ddg::fromSlotsTrusted(
        nrec, node_slots, erec, edge_slots,
        std::string_view(reinterpret_cast<const char *>(lrec),
                         label_bytes),
        in_deg, out_deg);
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

/** A whole regular file mapped read-only; unmapped on destruction. */
class MappedFile
{
  public:
    /** @throws SuiteIoError naming @p path on any failure */
    explicit MappedFile(const std::string &path)
    {
#if CVLIW_SUITE_HAVE_MMAP
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            throw SuiteIoError("cannot open suite cache '" + path + "'");
        struct stat st;
        if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
            ::close(fd);
            throw SuiteIoError("suite cache '" + path +
                               "' is not a regular file");
        }
        size_ = static_cast<std::size_t>(st.st_size);
        // An empty file maps nothing; the header check rejects it.
        void *m = size_ ? ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE,
                                 fd, 0)
                        : nullptr;
        ::close(fd); // the mapping holds its own file reference
        if (m == MAP_FAILED)
            throw SuiteIoError("cannot map suite cache '" + path + "'");
        data_ = static_cast<const unsigned char *>(m);
#else
        throw SuiteIoError("cannot map suite cache '" + path +
                           "': no mmap on this platform");
#endif
    }

    ~MappedFile()
    {
#if CVLIW_SUITE_HAVE_MMAP
        if (data_)
            ::munmap(const_cast<unsigned char *>(data_), size_);
#endif
    }

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const unsigned char *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    const unsigned char *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace

void
saveSuite(const std::vector<Loop> &suite, const std::string &path,
          std::uint64_t seed)
{
    trace::TraceSpan span("suite", "save");
    span.arg("loops", static_cast<long long>(suite.size()));
    // Payload plus the per-loop index that makes records
    // independently addressable (parallel loading) and independently
    // verifiable (per-record digests).
    Writer payload;
    std::vector<std::uint64_t> offsets, digests;
    offsets.reserve(suite.size());
    digests.reserve(suite.size());
    for (const Loop &loop : suite) {
        const std::uint64_t off = payload.bytes.size();
        offsets.push_back(off);
        serializeLoop(payload, loop);
        digests.push_back(fnvDigest4Lane(payload.bytes.data() + off,
                                         payload.bytes.size() - off));
    }

    // The index table gets its own digest (verified before any record
    // is read) so a flipped offset or record digest cannot silently
    // redirect or whitewash a record.
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
    out.u64(fnvDigest4Lane(index.bytes.data(), index.bytes.size()));
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

std::vector<Loop>
loadSuite(const std::string &path, std::optional<std::uint64_t> seed)
{
    trace::TraceSpan span("suite", "load");
    if (!kHostLittleEndian) {
        throw SuiteIoError("suite cache '" + path +
                           "': this loader needs a little-endian host");
    }
    const MappedFile file(path);
    Reader r{file.data(), file.size(), path};
    r.need(sizeof(kMagic));
    if (std::memcmp(r.data, kMagic, sizeof(kMagic)) != 0)
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
    const std::uint64_t file_seed = r.u64();
    const std::uint32_t loop_count = r.u32();
    const std::uint64_t payload_size = r.u64();
    const std::uint64_t index_digest = r.u64();
    span.arg("loops", static_cast<long long>(loop_count));
    if (seed && *seed != file_seed) {
        throw SuiteSeedMismatch("suite cache '" + path + "' holds seed " +
                                std::to_string(file_seed) + ", wanted " +
                                std::to_string(*seed));
    }

    // The header is not covered by the index digest, so bound the
    // index table by the actual file size before trusting loopCount
    // (a flipped header byte must fail cleanly, not over-read).
    const std::uint64_t index_bytes = loop_count * kIndexEntryBytes;
    if (index_bytes > r.size - r.pos)
        r.fail("loop count exceeds the file size");
    // Verify the raw index bytes before reading them: a flipped
    // offset or record digest must be caught here, not laundered into
    // a "corrupt record" error later (or worse, a whitewashed one).
    const unsigned char *index = r.data + r.pos;
    if (fnvDigest4Lane(index, static_cast<std::size_t>(index_bytes)) !=
        index_digest) {
        r.fail("index digest mismatch (corrupted file)");
    }
    auto offset = [&](std::uint32_t i) {
        return i < loop_count ? loadLe64(index + i * kIndexEntryBytes)
                              : payload_size;
    };
    for (std::uint32_t i = 0; i < loop_count; ++i) {
        if (offset(i) >= payload_size ||
            (i == 0 ? offset(i) != 0 : offset(i) <= offset(i - 1))) {
            r.fail("corrupt loop offset table");
        }
    }
    r.pos += static_cast<std::size_t>(index_bytes);
    if (r.size - r.pos != payload_size) {
        r.fail("payload size mismatch (header says " +
               std::to_string(payload_size) + ", file holds " +
               std::to_string(r.size - r.pos) + ")");
    }
    const unsigned char *payload = r.data + r.pos;

    // Records are independent thanks to the offset table, so large
    // suites parse in parallel, each thread into disjoint slots. The
    // calling thread parses chunk 0 and every chunk whose thread
    // failed to start; the first error is rethrown after the joins.
    const std::uint32_t threads = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(usableCpuCount(), loop_count / 128));
    const std::uint32_t chunk = (loop_count + threads - 1) / threads;
    std::vector<Loop> suite(loop_count);
    std::exception_ptr error;
    std::mutex error_mutex;
    auto parseChunk = [&](std::uint32_t c) {
        try {
            const std::uint32_t end = std::min(loop_count, (c + 1) * chunk);
            for (std::uint32_t i = c * chunk; i < end; ++i) {
                Reader rec{payload + offset(i),
                           static_cast<std::size_t>(offset(i + 1) -
                                                    offset(i)),
                           path};
                if (fnvDigest4Lane(rec.data, rec.size) !=
                    loadLe64(index + i * kIndexEntryBytes + 8)) {
                    rec.fail("record " + std::to_string(i) +
                             " digest mismatch (corrupted file)");
                }
                suite[i] = deserializeLoop(rec);
                if (rec.pos != rec.size)
                    rec.fail("loop record has trailing bytes");
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!error)
                error = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    try {
        for (std::uint32_t c = 1; c < threads; ++c)
            pool.emplace_back(parseChunk, c);
    } catch (...) {
        // Out of threads: the rest is parsed right here.
    }
    parseChunk(0);
    for (auto c = static_cast<std::uint32_t>(pool.size()) + 1;
         c < threads; ++c)
        parseChunk(c);
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
    return suite;
}

std::vector<Loop>
loadOrBuildSuite(std::uint64_t seed)
{
    const char *env = std::getenv("CVLIW_SUITE_CACHE");
    const std::string path = env ? env : CVLIW_SUITE_CACHE_DEFAULT;
    if (!path.empty() && std::ifstream(path).good()) {
        // Probe first: a build tree that never generated the cache
        // is normal and falls back silently; only a present-but-bad
        // cache warrants a warning.
        try {
            return loadSuite(path, seed);
        } catch (const SuiteSeedMismatch &err) {
            cv_inform(err.what(), "; regenerating");
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
