/**
 * @file
 * Deterministic pseudo-random number generation for the synthetic
 * workload suite. A fixed algorithm (xoshiro256**, seeded through
 * splitmix64) keeps the generated 678-loop suite bit-identical across
 * platforms and standard-library versions, unlike std::mt19937 paired
 * with std::uniform_*_distribution.
 */

#ifndef CVLIW_SUPPORT_RNG_HH
#define CVLIW_SUPPORT_RNG_HH

#include <cstdint>
#include <vector>

namespace cvliw
{

/**
 * Deterministic random number generator (xoshiro256**).
 */
class Rng
{
  public:
    /** Seed the generator; identical seeds give identical streams. */
    explicit Rng(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Uniform real in [0, 1). */
    double uniformReal();

    /** Bernoulli draw with probability @p p of returning true. */
    bool chance(double p);

    /**
     * Sample an index from a discrete distribution given by
     * non-negative weights. At least one weight must be positive.
     * @return index in [0, weights.size())
     */
    std::size_t weightedIndex(const std::vector<double> &weights);

  private:
    std::uint64_t s_[4];
};

} // namespace cvliw

#endif // CVLIW_SUPPORT_RNG_HH
