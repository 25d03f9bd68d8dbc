/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the simulator (clock jitter, synthetic
 * workload behaviour) draws from an explicitly-seeded Rng so that runs
 * are exactly reproducible.  The generator is xoshiro256** seeded via
 * splitmix64.
 */

#ifndef MCD_UTIL_RNG_HH
#define MCD_UTIL_RNG_HH

#include <cstdint>

namespace mcd
{

/**
 * Deterministic random number generator (xoshiro256**).
 *
 * Not thread-safe; each simulation component owns its own instance so
 * that streams are independent and stable under refactoring.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi]. @pre lo <= hi */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability p of true. */
    bool chance(double p);

    /**
     * Normally distributed value (Box-Muller).
     *
     * @param mean   distribution mean
     * @param sigma  standard deviation
     */
    double normal(double mean, double sigma);

    /**
     * Normal value clamped to [mean - limit, mean + limit]; used for
     * bounded clock jitter.
     */
    double clampedNormal(double mean, double sigma, double limit);

    /** Derive an independent child generator (stable w.r.t. parent). */
    Rng fork();

    /**
     * Whether @p a and @p b are in the same state, so that every
     * future draw of one equals the other's (the cached Box-Muller
     * partner included).  The key of a shared jitter stream
     * (sim/jitter.hh).
     */
    friend bool operator==(const Rng &a, const Rng &b);

  private:
    std::uint64_t s[4];
    double cachedNormal;
    bool hasCachedNormal;
};

} // namespace mcd

#endif // MCD_UTIL_RNG_HH
