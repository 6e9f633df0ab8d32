#include "support/rng.hh"

#include "support/logging.hh"

namespace cvliw
{

namespace
{

/** splitmix64 step; used only to expand the seed. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // xoshiro must not start from the all-zero state.
    if (!(s_[0] | s_[1] | s_[2] | s_[3]))
        s_[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    cv_assert(lo <= hi, "uniformInt(", lo, ", ", hi, ")");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    // Rejection sampling for exact uniformity.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return lo + static_cast<std::int64_t>(v % span);
}

double
Rng::uniformReal()
{
    // 53 high-quality bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniformReal() < p;
}

std::size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        cv_assert(w >= 0.0, "negative weight");
        total += w;
    }
    cv_assert(total > 0.0, "weightedIndex with all-zero weights");
    double target = uniformReal() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace cvliw
