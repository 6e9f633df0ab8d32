/**
 * @file
 * FNV-1a(64) constants, used by every digest in the tree (the
 * compile-result digests in eval/digest.hh). Contract-bearing: the
 * pinned digests depend on these exact values.
 */

#ifndef CVLIW_SUPPORT_FNV_HH
#define CVLIW_SUPPORT_FNV_HH

#include <cstdint>

namespace cvliw
{

constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

} // namespace cvliw

#endif // CVLIW_SUPPORT_FNV_HH
