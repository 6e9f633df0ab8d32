/**
 * @file
 * `loadOrBuildSuite`, kept as another name for `buildSuite`.
 */

#ifndef CVLIW_WORKLOADS_SUITE_IO_HH
#define CVLIW_WORKLOADS_SUITE_IO_HH

#include <cstdint>
#include <vector>

#include "workloads/suite.hh"

namespace cvliw
{

// Only compile_bench/compile_bench.cc calls this; call buildSuite.
inline std::vector<Loop>
loadOrBuildSuite(std::uint64_t seed = 42)
{
    return buildSuite(seed);
}

} // namespace cvliw

#endif // CVLIW_WORKLOADS_SUITE_IO_HH
