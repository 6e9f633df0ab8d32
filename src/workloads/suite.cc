#include "workloads/suite.hh"

#include <stdexcept>

namespace cvliw
{

namespace
{

/** Per-benchmark sub-seed so benchmarks are independent streams. */
std::uint64_t
benchSeed(std::uint64_t seed, std::size_t bench_index)
{
    return seed * 0x9e3779b97f4a7c15ULL + bench_index * 0x100000001b3ULL;
}

/**
 * Generate the loops of benchmarks [@p first, @p last) in profile
 * order, each from its own sub-seed, assembling every loop in one
 * scratch. @p loops is the total they hold.
 */
std::vector<Loop>
generateBenchmarks(std::uint64_t seed, std::size_t first,
                   std::size_t last, int loops)
{
    const auto &profiles = specFp95Profiles();
    std::vector<Loop> out;
    out.reserve(static_cast<std::size_t>(loops));
    LoopScratch scratch;
    for (std::size_t b = first; b < last; ++b) {
        Rng rng(benchSeed(seed, b));
        for (int i = 0; i < profiles[b].numLoops; ++i)
            out.push_back(generateLoop(profiles[b], rng, i, scratch));
    }
    return out;
}

} // namespace

std::vector<Loop>
buildSuite(std::uint64_t seed)
{
    return generateBenchmarks(seed, 0, specFp95Profiles().size(),
                              totalSuiteLoops());
}

std::vector<Loop>
buildBenchmark(const std::string &benchmark, std::uint64_t seed)
{
    const auto &profiles = specFp95Profiles();
    for (std::size_t b = 0; b < profiles.size(); ++b) {
        if (profiles[b].name == benchmark) {
            return generateBenchmarks(seed, b, b + 1,
                                      profiles[b].numLoops);
        }
    }
    throw std::invalid_argument("unknown benchmark '" + benchmark + "'");
}

} // namespace cvliw
