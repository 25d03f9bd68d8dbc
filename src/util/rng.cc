#include "util/rng.hh"

#include <cmath>
#include <cstring>

namespace mcd
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : cachedNormal(0.0), hasCachedNormal(false)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
    // xoshiro must not be seeded with all zeros; splitmix64 cannot
    // produce four zero words from any seed, but be defensive anyway.
    if (!(s[0] | s[1] | s[2] | s[3]))
        s[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high-quality bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(bound));
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    return lo + static_cast<std::int64_t>(
        below(static_cast<std::uint64_t>(hi - lo + 1)));
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

double
Rng::normal(double mean, double sigma)
{
    if (hasCachedNormal) {
        hasCachedNormal = false;
        return mean + sigma * cachedNormal;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    double u2 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    cachedNormal = r * std::sin(theta);
    hasCachedNormal = true;
    return mean + sigma * r * std::cos(theta);
}

double
Rng::clampedNormal(double mean, double sigma, double limit)
{
    double v = normal(mean, sigma);
    if (v < mean - limit)
        return mean - limit;
    if (v > mean + limit)
        return mean + limit;
    return v;
}

Rng
Rng::fork()
{
    return Rng(next());
}

bool
operator==(const Rng &a, const Rng &b)
{
    for (int i = 0; i < 4; ++i) {
        if (a.s[i] != b.s[i])
            return false;
    }
    if (a.hasCachedNormal != b.hasCachedNormal)
        return false;
    // The cached value matters only while it is pending; compare its
    // bits so that -0.0 and 0.0 stay distinct states.
    return !a.hasCachedNormal ||
           std::memcmp(&a.cachedNormal, &b.cachedNormal,
                       sizeof a.cachedNormal) == 0;
}

} // namespace mcd
