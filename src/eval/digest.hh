/**
 * @file
 * Bit-identity digests of compile results. A digest folds every
 * observable field of a `CompileResult` (II, schedule, partition,
 * replication stats, failure causes) into one FNV-1a hash, so two
 * builds - or two worker counts, or a cached vs regenerated suite -
 * that produce the same digest produced bit-identical compilation
 * decisions on the whole input.
 *
 * This is the library behind `examples/suite_digest.cpp` (the manual
 * perf-PR check), `tests/digest_test.cc` (the CI pin of the suite
 * digests) and `tests/service_test.cc` (worker-count determinism).
 * The mixing order is part of the contract: changing it invalidates
 * every recorded digest, including the ROADMAP's combined suite
 * digest, so treat it as append-only.
 *
 * `SuiteWork` is the digests' companion for performance work: the
 * suite's summed deterministic work counters, which move when a
 * change makes the compiler do more or less work, while wall time
 * only says so through noise.
 */

#ifndef CVLIW_EVAL_DIGEST_HH
#define CVLIW_EVAL_DIGEST_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/pipeline.hh"
#include "eval/runner.hh"
#include "support/fnv.hh"

namespace cvliw
{

/** FNV-1a(64) accumulator used by the result digests. */
struct ResultDigest
{
    std::uint64_t h = kFnv1aOffset;

    void mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= kFnv1aPrime;
        }
    }

    void mix(int v) { mix(static_cast<std::uint64_t>(v)); }

    /**
     * The size, then each entry widened to int: the one-byte cluster
     * and bus arrays mix exactly as the int arrays they replaced.
     */
    template <typename T>
    void mix(const std::vector<T> &vs)
    {
        mix(vs.size());
        for (int v : vs)
            mix(v);
    }
};

/** Fold every observable field of @p result into @p digest. */
void mixCompileResult(ResultDigest &digest, const CompileResult &result);

/**
 * Digest of a whole suite run: every loop's result folded in suite
 * order. Equal digests mean bit-identical results on every loop.
 */
std::uint64_t digestSuiteResult(const SuiteResult &results);

/**
 * The deterministic work counters of `CompileTelemetry`, summed over
 * a suite run, and the record bytes the results own. Like the digest,
 * the sums are the same at any worker count and whatever the workers
 * compiled before.
 */
struct SuiteWork
{
    std::uint64_t iiAttempts = 0;
    std::uint64_t refineProbes = 0;
    std::uint64_t refineCommits = 0;
    std::uint64_t asapRuns = 0;
    std::uint64_t widthSweeps = 0;
    std::uint64_t analysisRuns = 0;
    std::uint64_t replicationRounds = 0;
    /**
     * Result graph bytes the results hold and their inputs do not
     * share (`DdgRecords::ownedBytes`): memory, not work, but as
     * noise-free.
     */
    std::uint64_t resultBytes = 0;

    bool operator==(const SuiteWork &o) const;
};

/** Sum the work counters and owned bytes of every loop of @p results. */
SuiteWork sumSuiteWork(const SuiteResult &results);

/** Prints "iiAttempts=<n> refineProbes=<n> ... resultBytes=<n>". */
std::ostream &operator<<(std::ostream &os, const SuiteWork &work);

} // namespace cvliw

#endif // CVLIW_EVAL_DIGEST_HH
