/**
 * @file
 * Suite serialization: write the generated loop suite to a versioned
 * flat binary file and load it back bit-identically, so binaries stop
 * paying the ~7 ms `buildSuite` regeneration per process (the CMake
 * build generates the cache once; see below).
 *
 * ## File format (version 3)
 *
 * All multi-byte fields are little-endian and fixed-width; the layout
 * is a single flat sequence (mmap-friendly: no pointers, no
 * alignment holes that depend on the host). Integrity is *lazy and
 * per-record*: the header and index table carry their own digest,
 * verified at open, and every loop record carries a digest in the
 * index, verified only when that record is touched - an open faults
 * in ~a dozen KB no matter how large the suite is, and untouched
 * records stay clean evictable file pages.
 *
 * ```
 * header (44 bytes):
 *   u8[8]  magic       "CVSUITE\0"
 *   u32    version     3
 *   u32    endianTag   0x01020304 (rejects foreign-endian writers)
 *   u64    seed        generator seed the suite was built from
 *   u32    loopCount
 *   u64    payloadSize bytes following the index table
 *   u64    indexFnv    4-lane interleaved FNV-1a(64) over the index
 *                      table bytes (fnvDigest4Lane, support/fnv.hh)
 * index table, per loop (16 bytes):
 *   u64    offset      record start from the payload start
 *                      (strictly increasing, [0] = 0)
 *   u64    recordFnv   same digest function over that record's bytes
 * payload, per loop:
 *   str    benchmark   (u32 length + bytes)
 *   i32    index
 *   u64    visits      (IEEE-754 bit pattern)
 *   u64    avgIters    (IEEE-754 bit pattern)
 *   u32    nodeSlots   (including tombstones)
 *   u32    edgeSlots   (including tombstones)
 *   u32    labelBytes
 *   nodeSlots x 24-byte node record = DdgNode's exact byte layout
 *     (i32 id, i32 semanticId, u32 labelOffset, u32 labelLen,
 *      u8 opClass, u8 isReplica, u8 isSpill, u8 liveOut, u8 alive,
 *      u8[3] zero padding)
 *   edgeSlots x 24-byte edge record = DdgEdge's exact byte layout
 *     (i32 id, i32 src, i32 dst, i32 distance, i32 memLatency,
 *      u8 kind, u8 alive, u8[2] zero padding)
 *   u8[labelBytes]     the graph's label arena, verbatim
 * ```
 *
 * The node/edge records ARE the in-memory PODs (static_asserts in
 * ddg/ddg.hh pin the layout): after one validation pass over the raw
 * bytes, deserialization on little-endian hosts is one bulk memcpy
 * per array plus one label-blob copy - no per-node parse loop, no
 * per-node allocation. Big-endian hosts fall back to per-field
 * assembly of the same bytes.
 *
 * Any truncation, corruption (digest mismatch), bad magic or
 * unsupported version is rejected with a `SuiteIoError` carrying a
 * clear message - never undefined behaviour. Version bumps are
 * append-only: readers reject versions they do not know (a stale v2
 * cache is rejected at open, and `loadOrBuildSuite` warns once with
 * the path and both versions before regenerating). The offset table
 * makes loop records independently addressable, so big suites
 * deserialize on several threads, and `SuiteCacheFile` materializes
 * single records lazily for binaries that touch a few loops (e.g.
 * perf_micro's sampled benches).
 *
 * ## Bit-identity contract
 *
 * `loadSuite` rebuilds each `Ddg` via `Ddg::fromSlots`, which derives
 * ids and adjacency lists exactly as an addNode/addEdge/remove*
 * replay would, so every observable `Loop` field (names, profiles,
 * node/edge arrays including tombstones and adjacency order) matches
 * `buildSuite`'s output exactly. The only exception is
 * `Ddg::generation()`, which is process-unique by design and never
 * serialized. tests/suite_io_test.cc pins the field-level round-trip.
 *
 * ## How binaries consume the cache
 *
 * The build generates `suite-42.cvsuite` in the build directory once
 * (tools/suite_cache_gen, wired as a CMake custom command) and bakes
 * that path into the library as the default. `loadOrBuildSuite()`
 * resolves, in order: the `CVLIW_SUITE_CACHE` environment variable,
 * the baked build-directory default, then `buildSuite()` generation
 * as the fallback - so test and bench binaries transparently load the
 * cache when it exists and still work from a bare checkout.
 */

#ifndef CVLIW_WORKLOADS_SUITE_IO_HH
#define CVLIW_WORKLOADS_SUITE_IO_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads/suite.hh"

namespace cvliw
{

/** Malformed, corrupted or unreadable suite cache file. */
class SuiteIoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Serialize @p suite to @p path (format above).
 * @param seed the generator seed the suite was built from, recorded
 *        in the header so loaders can verify they got the suite they
 *        asked for
 * @throws SuiteIoError when the file cannot be written
 */
void saveSuite(const std::vector<Loop> &suite, const std::string &path,
               std::uint64_t seed);

/**
 * Load a suite saved by saveSuite(). Bit-identical to the generated
 * suite (see the contract above).
 * @param seed_out when non-null, receives the header's seed
 * @throws SuiteIoError on any malformed, truncated or corrupt input
 */
std::vector<Loop> loadSuite(const std::string &path,
                            std::uint64_t *seed_out = nullptr);

/** Cheap per-record facts readable without building a graph. */
struct SuiteLoopInfo
{
    std::string benchmark; //!< benchmark the loop belongs to
    int index = 0;         //!< loop index within the benchmark
    int liveNodes = 0;     //!< live (non-tombstoned) DDG nodes
};

/**
 * An open, validated suite cache: the constructor parses the header
 * and verifies the index digest - nothing else - after which records
 * are independently addressable through the offset table, each
 * verified against its own digest the first time it is touched
 * (`validatedBytesOnOpen()` reports how little the open checked). The
 * lazy counterpart of `loadSuite` for binaries that touch a few
 * loops: `loadLoop(i)` materializes one record (~1/678 of the parse,
 * validation and allocation work), and `scan()` skims every record's
 * header facts without building any graph. All methods are const; a
 * const SuiteCacheFile is safe to share across threads.
 *
 * Where the platform has mmap the file is mapped read-only instead of
 * slurped: an open faults in only the header + index pages, records
 * parse zero-copy out of the page cache when touched, untouched
 * records cost nothing at all, and concurrent opens of one cache
 * share physical memory. Everywhere else - or with
 * `CVLIW_SUITE_MMAP=0` in the environment - the original whole-file
 * slurp is used; behaviour is identical either way (tests pin both
 * paths). Mapped mode trusts the file not to be truncated while open,
 * like every mmap consumer; the build-generated cache is write-once.
 */
class SuiteCacheFile
{
  public:
    /** Open and validate @p path. @throws SuiteIoError */
    explicit SuiteCacheFile(const std::string &path);
    ~SuiteCacheFile();
    SuiteCacheFile(SuiteCacheFile &&) noexcept;
    SuiteCacheFile &operator=(SuiteCacheFile &&) noexcept;

    const std::string &path() const { return path_; }
    std::uint64_t seed() const { return seed_; }
    std::uint32_t loopCount() const;

    /**
     * Materialize record @p record (0-based, in suite order). Fully
     * validated; bit-identical to `loadSuite(path)[record]`.
     * @throws SuiteIoError on a bad record index or malformed record
     */
    Loop loadLoop(std::uint32_t record) const;

    /**
     * Skim every record's benchmark, index and live node count -
     * enough to pick records by name or size before materializing
     * only the ones needed. O(payload bytes) but allocation-light:
     * no graphs, no labels, no edge parsing.
     * @throws SuiteIoError on a malformed record header
     */
    std::vector<SuiteLoopInfo> scan() const;

    /**
     * Bytes the constructor integrity-checked: the fixed header plus
     * the index table. Everything else is verified lazily, record by
     * record, as it is touched - the number perf_micro's cold-load
     * bench reports against the file size.
     */
    std::uint64_t validatedBytesOnOpen() const;

    /** Payload bytes of record @p record (index-bounds-checked). */
    std::uint64_t recordBytes(std::uint32_t record) const;

  private:
    // loadSuite shares the validated byte buffer for its parallel
    // whole-suite parse instead of re-validating per record.
    friend std::vector<Loop> loadSuite(const std::string &,
                                       std::uint64_t *);

    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::string path_;
    std::uint64_t seed_ = 0;
};

/**
 * Convenience single-record load: open + validate @p path and
 * materialize just record @p record. Callers loading several records
 * should hold a `SuiteCacheFile` instead (one validation pass).
 * @throws SuiteIoError
 */
Loop loadSuiteLoop(const std::string &path, std::uint32_t record);

/**
 * The suite cache path binaries should try first: the
 * `CVLIW_SUITE_CACHE` environment variable if set, else the path
 * baked in at build time (the build-directory cache), else "".
 */
std::string defaultSuiteCachePath();

/**
 * The fast path to a suite: load `defaultSuiteCachePath()` when it
 * holds a valid cache for @p seed (~1.2 ms single-core vs ~7 ms
 * generation; multi-core loads parse records in parallel), else
 * generate with `buildSuite(seed)`. Never throws: any cache problem
 * falls back to generation.
 */
std::vector<Loop> loadOrBuildSuite(std::uint64_t seed = 42);

} // namespace cvliw

#endif // CVLIW_WORKLOADS_SUITE_IO_HH
