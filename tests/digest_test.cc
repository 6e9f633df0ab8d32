/**
 * @file
 * CI pin of the suite compile digests (eval/digest.hh): compiles a
 * fixed suite subset for the three reference machine configurations
 * and compares the digests against pinned constants, so any change
 * that silently alters compilation decisions fails CI instead of
 * relying on someone running examples/suite_digest by hand.
 *
 * The default test uses every 16th loop (43 of 678) to stay fast; the
 * full 678-loop digest - the exact value examples/suite_digest prints
 * and ROADMAP records - runs when CVLIW_DIGEST_FULL is set (the CI
 * workflow sets it on one job).
 *
 * Next to each digest the test pins the suite's summed work counters
 * (`SuiteWork`): II attempts, refinement probes and commits, ASAP
 * runs, width sweeps, loop analyses and replication rounds, and the
 * record bytes the results own (`resultBytes`). They are the
 * regression signal for compile work and result memory that timing
 * noise cannot trip: a change that makes the compiler do more work,
 * or its results hold more, fails here even when the digests hold.
 *
 * If a PR changes these values *intentionally* (an algorithmic
 * change, not a refactor), re-pin them here and in ROADMAP.md and say
 * so in the PR: the digests are the proof that perf work preserved
 * behaviour, and the work sums show what it saved.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "eval/digest.hh"
#include "eval/service.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

/** The three reference configs of the digest check (ROADMAP). */
const char *const kConfigs[] = {"2c1b2l64r", "4c2b2l64r", "4c2b4l64r"};

std::vector<Loop>
subsetSuite()
{
    const auto suite = buildSuite(42);
    std::vector<Loop> subset;
    for (std::size_t i = 0; i < suite.size(); i += 16)
        subset.push_back(suite[i]);
    return subset;
}

TEST(ResultDigest, NarrowArraysMixLikeIntArrays)
{
    // Partitions and bus ids are one-byte arrays; they must fold into
    // the digest exactly as the int arrays they replaced.
    const std::vector<ClusterId> narrow{0, -1, 3, 126, -1, 1};
    const std::vector<int> wide{0, -1, 3, 126, -1, 1};
    ResultDigest a, b;
    a.mix(narrow);
    b.mix(wide);
    EXPECT_EQ(a.h, b.h);

    ResultDigest empty_narrow, empty_wide;
    empty_narrow.mix(std::vector<ClusterId>{});
    empty_wide.mix(std::vector<int>{});
    EXPECT_EQ(empty_narrow.h, empty_wide.h);
    EXPECT_NE(a.h, empty_narrow.h);
}

TEST(SuiteDigest, SubsetDigestsPinned)
{
    const auto subset = subsetSuite();
    ASSERT_EQ(subset.size(), 43u);

    // Pinned on the seed algorithm (PR 2's digests); see the file
    // comment before re-pinning.
    const std::uint64_t expected[] = {0x138824d791729e8dull,
                                      0xbcb5b042636e5fd9ull,
                                      0xf289039d9e620614ull};
    const std::uint64_t expected_combined = 0x5f7ff8d38700f3feull;
    // iiAttempts, refineProbes, refineCommits, asapRuns, widthSweeps,
    // analysisRuns, replicationRounds, resultBytes.
    const SuiteWork expected_work[] = {
        {53, 2852, 69, 364, 113, 69, 26, 5096},
        {73, 13518, 143, 1862, 235, 104, 31, 11464},
        {90, 15093, 138, 2243, 237, 101, 195, 12096},
    };

    ResultDigest all;
    for (std::size_t c = 0; c < 3; ++c) {
        const auto m = MachineConfig::fromString(kConfigs[c]);
        const SuiteResult results =
            CompileService::shared().compileSuite(subset, m);
        const std::uint64_t h = digestSuiteResult(results);
        EXPECT_EQ(h, expected[c]) << "config " << kConfigs[c];
        EXPECT_EQ(sumSuiteWork(results), expected_work[c])
            << "config " << kConfigs[c];
        all.mix(h);
    }
    EXPECT_EQ(all.h, expected_combined);
}

TEST(SuiteDigest, FullSuiteDigestPinned)
{
    if (!std::getenv("CVLIW_DIGEST_FULL")) {
        GTEST_SKIP() << "set CVLIW_DIGEST_FULL=1 to run the full "
                        "678-loop digest (~1 s of compiles)";
    }
    const auto suite = buildSuite(42);
    ASSERT_EQ(suite.size(), 678u);

    // The exact values examples/suite_digest prints; combined digest
    // recorded in ROADMAP.md since PR 2. Pinned for 1, 4 and
    // hardware-concurrency workers: the pool must produce
    // bit-identical results at any width.
    const std::uint64_t expected[] = {0x290f2e7f6d769c9full,
                                      0x2a9f8f118be94bd5ull,
                                      0x24ef7e20a9753f3bull};
    const std::uint64_t expected_combined = 0xf607a8cc685dd8a4ull;
    // The work sums examples/suite_digest prints.
    const SuiteWork expected_work[] = {
        {827, 47829, 1272, 5889, 1798, 1093, 389, 78616},
        {1043, 204777, 2287, 27056, 3663, 1516, 662, 183720},
        {1265, 229386, 2027, 30804, 3470, 1515, 2800, 195136},
    };

    for (int workers : {1, 4, 0}) {
        CompileService service(workers);
        ResultDigest all;
        for (std::size_t c = 0; c < 3; ++c) {
            const auto m = MachineConfig::fromString(kConfigs[c]);
            const SuiteResult results = service.compileSuite(suite, m);
            const std::uint64_t h = digestSuiteResult(results);
            EXPECT_EQ(h, expected[c])
                << "config " << kConfigs[c] << ", "
                << service.numWorkers() << " workers";
            EXPECT_EQ(sumSuiteWork(results), expected_work[c])
                << "config " << kConfigs[c] << ", "
                << service.numWorkers() << " workers";
            all.mix(h);
        }
        EXPECT_EQ(all.h, expected_combined)
            << service.numWorkers() << " workers";
    }
}

} // namespace
} // namespace cvliw
