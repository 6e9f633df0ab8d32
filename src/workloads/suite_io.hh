/**
 * @file
 * Suite serialization: write the generated loop suite to a versioned
 * flat binary file and load it back bit-identically, so binaries stop
 * paying the `buildSuite` regeneration per process (the CMake build
 * generates the cache once; see below).
 *
 * ## File format (version 4)
 *
 * All multi-byte fields are little-endian and fixed-width; the layout
 * is a single flat sequence (mmap-friendly: no pointers, no
 * alignment holes that depend on the host). The header and index
 * table carry their own digest, and every loop record carries a
 * digest in the index.
 *
 * ```
 * header (44 bytes):
 *   u8[8]  magic       "CVSUITE\0"
 *   u32    version     4
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
 *   nodeSlots x 16-byte node record = DdgNode's exact byte layout
 *     (i32 semanticId, u32 labelOffset, u32 labelLen, u8 opClass,
 *      u8 flags = isReplica | isSpill << 1 | liveOut << 2 |
 *      alive << 3, u8[2] zero padding)
 *   edgeSlots x 16-byte edge record = DdgEdge's exact byte layout
 *     (i32 src, i32 dst, i32 distance, i16 memLatency, u8 kind,
 *      u8 alive)
 *   u8[labelBytes]     the graph's label arena, verbatim
 * ```
 *
 * Ids are slot indices, so no record stores one. Versions: 1 was the
 * first format; 2 kept its layout with the 4-lane payload digest; 3
 * made the records 24-byte copies of the graph structs, added the
 * label blob and per-record digests; 4 shrank the records to 16
 * bytes. The seed-42 suite takes 1.17 MB.
 *
 * The node/edge records ARE the in-memory PODs (static_asserts in
 * ddg/ddg.hh pin the layout). The loader checks the bytes only it can
 * see (op class and edge kind ranges, reserved flag bits and pad
 * bytes, an edge alive byte of 0 or 1); `Ddg::fromSlots` then copies
 * each array and the label blob once - no per-node parse loop, no
 * per-node allocation - and checks the structural rules (semantic
 * ids, label slices, edge endpoints, distances, live edges on live
 * nodes, flow edges from value producers). A broken rule is a
 * `SuiteIoError` naming the path, the rule and the row.
 *
 * ## Loading
 *
 * `loadSuite` maps the file read-only and checks the header. A
 * caller that names the seed it wants gets a file built from another
 * seed rejected right there (`SuiteSeedMismatch`), before the index
 * digest or any record is read. Otherwise it checks the index digest,
 * then parses the records in parallel (one thread per usable CPU, at
 * most one per 128 records), verifying each record's digest before
 * parsing it. Truncation, corruption (digest mismatch),
 * bad magic, an unknown version, a missing or non-regular file, a
 * host without mmap and a big-endian host all throw a `SuiteIoError`
 * naming the path - never undefined behaviour. A stale v3 cache is
 * rejected with both versions; bump the version for any layout
 * change. The file is only ever mapped because mapping measured
 * fastest (v3 cache: ~1.0 ms mapped, ~1.47 ms read into a buffer
 * first). On a 4-CPU x86-64 host (Release, perf_micro medians of 10
 * runs) the cache loads in 0.64 ms (BM_SuiteLoad) and
 * `buildSuite(42)` takes 3.0 ms (BM_SuiteGeneration).
 *
 * The loaded suite is bit-identical to `buildSuite`'s on every
 * observable `Loop` field (names, profiles, node/edge arrays
 * including tombstones, adjacency order): `Ddg::fromSlots`
 * derives ids and adjacency exactly as an addNode/addEdge/remove*
 * replay would. Only the process-unique `Ddg::generation()` differs.
 * tests/suite_io_test.cc pins the field-level round trip.
 */

#ifndef CVLIW_WORKLOADS_SUITE_IO_HH
#define CVLIW_WORKLOADS_SUITE_IO_HH

#include <cstdint>
#include <optional>
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

/** A suite cache whose header records another seed than the one wanted. */
class SuiteSeedMismatch : public SuiteIoError
{
  public:
    using SuiteIoError::SuiteIoError;
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
 * @param seed when set, the generator seed the caller wants; a file
 *        whose header records another seed is rejected before any
 *        record is read
 * @throws SuiteSeedMismatch when the header's seed is not @p seed
 * @throws SuiteIoError on any malformed, truncated, corrupt or
 *         unmappable input
 */
std::vector<Loop> loadSuite(const std::string &path,
                            std::optional<std::uint64_t> seed = {});

/**
 * The fast path to a suite: load the `CVLIW_SUITE_CACHE` file if that
 * variable is set, else the build-directory cache whose path is baked
 * in at build time (tools/suite_cache_gen writes it once per build
 * tree). When that file is missing, bad or holds another seed,
 * generate with `buildSuite(seed)` instead, warning if a file was
 * present but bad. A file for another seed is rejected from its
 * header with an info line, not a warning. Never throws.
 */
std::vector<Loop> loadOrBuildSuite(std::uint64_t seed = 42);

} // namespace cvliw

#endif // CVLIW_WORKLOADS_SUITE_IO_HH
