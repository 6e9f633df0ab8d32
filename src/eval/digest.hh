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
 */

#ifndef CVLIW_EVAL_DIGEST_HH
#define CVLIW_EVAL_DIGEST_HH

#include <cstdint>
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

} // namespace cvliw

#endif // CVLIW_EVAL_DIGEST_HH
