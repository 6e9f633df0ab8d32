/**
 * @file
 * Bit-identity digest of compile() over the full generated suite.
 *
 * Prints one FNV-1a hash per machine configuration plus a combined
 * digest, folding in every observable field of every CompileResult
 * (II, schedule, partition, replication stats). Two builds that print
 * the same digests produce bit-identical compilation results on the
 * whole suite - the check the perf PRs use to prove a refactor
 * changed no decisions. Each configuration's digest line is followed
 * by a line with the suite's summed work counters (II attempts,
 * refinement probes and commits, ASAP runs, width sweeps, loop
 * analyses, replication rounds) and the record bytes its results own
 * (`resultBytes`): the same at every run, so a change in the work the
 * compiler does or the memory its results hold shows there without
 * timing noise. Both live in
 * eval/digest.hh (shared with tests/digest_test.cc, which pins these
 * values in CI); compilation runs on the CompileService pool, whose
 * results are deterministic for any worker count.
 *
 * Usage: suite_digest [seed]   (default seed 42, the suite default)
 */

#include <cstdlib>
#include <iostream>

#include "eval/digest.hh"
#include "eval/service.hh"
#include "workloads/suite.hh"

int
main(int argc, char **argv)
{
    using namespace cvliw;

    const std::uint64_t seed =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
    const auto suite = buildSuite(seed);

    const char *configs[] = {"2c1b2l64r", "4c2b2l64r", "4c2b4l64r"};
    ResultDigest all;
    for (const char *cfg : configs) {
        const auto m = MachineConfig::fromString(cfg);
        const SuiteResult results =
            CompileService::shared().compileSuite(suite, m);
        const std::uint64_t h = digestSuiteResult(results);
        std::cout << cfg << " " << std::hex << h << std::dec << "\n";
        std::cout << cfg << " work " << sumSuiteWork(results) << "\n";
        all.mix(h);
    }
    std::cout << "combined " << std::hex << all.h << std::dec << "\n";
    return 0;
}
