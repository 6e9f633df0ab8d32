/**
 * @file
 * FNV-1a(64) constants and the 4-lane payload digest, used by every
 * digest in the tree (the compile-result digests in eval/digest.hh
 * and the on-disk record digests of workloads/suite_io.cc).
 * Contract-bearing: the recorded suite digests and the suite cache
 * file format depend on these exact values and on fnvDigest4Lane's
 * exact folding order.
 */

#ifndef CVLIW_SUPPORT_FNV_HH
#define CVLIW_SUPPORT_FNV_HH

#include <cstddef>
#include <cstdint>

namespace cvliw
{

constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/**
 * FNV-1a folded over little-endian 64-bit words in four interleaved
 * lanes (lane j hashes words j, j+4, j+8, ...), with the lanes, the
 * remainder bytes and the total length folded together at the end.
 * A single FNV chain is one dependent 64-bit multiply per word - the
 * multiplier latency serializes the whole pass - while four
 * independent chains keep the multiplier pipeline full, making bulk
 * integrity checks ~4x cheaper and still sensitive to any flipped
 * bit. Words are assembled by explicit shifts, so the digest is
 * identical on any host endianness. This is the per-record digest of
 * the suite cache (since format v3), which pins this exact function.
 */
std::uint64_t fnvDigest4Lane(const unsigned char *data,
                             std::size_t size);

} // namespace cvliw

#endif // CVLIW_SUPPORT_FNV_HH
