/**
 * @file
 * The full 678-loop synthetic SPECfp95 suite used by the benchmark
 * harness, generated deterministically from a seed.
 */

#ifndef CVLIW_WORKLOADS_SUITE_HH
#define CVLIW_WORKLOADS_SUITE_HH

#include <vector>

#include "workloads/generator.hh"

namespace cvliw
{

/**
 * Build the whole suite (678 loops across 10 benchmarks).
 * The same seed always produces bit-identical loops.
 */
std::vector<Loop> buildSuite(std::uint64_t seed = 42);

/**
 * Build only the loops of @p benchmark (e.g. "mgrid"); an unknown
 * name throws std::invalid_argument.
 */
std::vector<Loop> buildBenchmark(const std::string &benchmark,
                                 std::uint64_t seed = 42);

} // namespace cvliw

#endif // CVLIW_WORKLOADS_SUITE_HH
