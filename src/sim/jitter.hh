/**
 * @file
 * Shared clock-jitter streams.
 *
 * A domain clock's jitter sequence depends only on its generator's
 * starting state and the jitter bound (SimConfig::jitterPs): not on
 * the workload, the frequency or anything else the run does.  Every
 * run in a process that builds a clock from the same (state, bound)
 * pair draws the same sequence, so JitterStream computes each such
 * sequence once per process, lazily, in chunks, and clocks read it
 * through a cursor instead of taking a Box-Muller sample per edge.
 *
 * Each draw j is stored exactly in two bytes (JitterCode): k =
 * floor(j) and a round-up exponent e*.  The clock's edge for nominal
 * time N and floor lo is
 *
 *     static_cast<Tick>(std::max(double(N) + j, double(lo)))
 *
 * With M = N + k, the sum double(N) + j is the double nearest the
 * real M + f, f = j - k in [0, 1), so its truncation is M + 1 if that
 * rounds up to M + 1 and M otherwise.  For 1 <= M < 2^52 in binade E
 * = floor(log2 M), M + f rounds up exactly when 1 - f <= ulp(M) / 2 =
 * 2^(E - 53) (a tie goes to M + 1, whose last mantissa bit is 0),
 * that is when E >= e*, the smallest such binade.  For M <= 0 the
 * floor wins either way.  The edge is therefore max(M + [E >= e*],
 * lo): the same integer, bit for bit.  From M = 2^52 on (4500 s of
 * simulated time) the binade rule no longer holds, and the clock
 * continues with direct draws from the stream's position.
 */

#ifndef MCD_SIM_JITTER_HH
#define MCD_SIM_JITTER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/rng.hh"
#include "util/types.hh"

namespace mcd::sim
{

/** One jitter draw j, exactly as the edge formula needs it. */
struct JitterCode
{
    std::int8_t floorPs;      ///< k = floor(j)
    std::uint8_t roundUpExp;  ///< e*: M + (j - k) rounds up iff
                              ///< floor(log2 M) >= e*
};

/** Widest SimConfig::jitterPs whose draws a JitterCode can hold. */
constexpr Tick MAX_CODED_JITTER_PS = 127;

/** Codes are exact for M = nominal + k below this. */
constexpr std::int64_t CODED_EDGE_LIMIT = std::int64_t{1} << 52;

/** One jitter draw of bound @p jitter_ps from @p rng: the clock's
 *  Box-Muller sample, clamped to +-jitter_ps. */
inline double
drawJitter(Rng &rng, Tick jitter_ps)
{
    return rng.clampedNormal(0.0, static_cast<double>(jitter_ps) / 3.0,
                             static_cast<double>(jitter_ps));
}

/** Encode draw @p j, |j| <= MAX_CODED_JITTER_PS. */
JitterCode encodeJitter(double j);

/**
 * The jittered edge for nominal time @p nominal and floor @p lo from
 * code @p c: static_cast<Tick>(std::max(double(nominal) + j,
 * double(lo))) for the draw j that @p c encodes.
 * @pre nominal + c.floorPs < CODED_EDGE_LIMIT and lo >= 1
 */
inline Tick
codedEdge(Tick nominal, JitterCode c, Tick lo)
{
    std::int64_t m = static_cast<std::int64_t>(nominal) + c.floorPs;
    if (m > 0 &&
        63 - __builtin_clzll(static_cast<std::uint64_t>(m)) >=
            c.roundUpExp)
        ++m;
    return m > static_cast<std::int64_t>(lo) ? static_cast<Tick>(m)
                                              : lo;
}

/**
 * The process-wide, append-only jitter sequence of one generator
 * state and bound.
 */
class JitterStream
{
  public:
    /** Draws per chunk (128 KB of codes). */
    static constexpr std::size_t CHUNK_DRAWS = std::size_t{1} << 16;

    struct Chunk
    {
        Rng start;  ///< generator state before the chunk's first draw
        std::array<JitterCode, CHUNK_DRAWS> codes;
    };

    /**
     * The stream of drawJitter(rng, @p jitter_ps) from generator
     * state @p rng, registered on first use and never freed; nullptr
     * when @p jitter_ps exceeds MAX_CODED_JITTER_PS.  Thread-safe.
     */
    static JitterStream *of(const Rng &rng, Tick jitter_ps);

    /** Chunk @p c, draws [c, c + 1) * CHUNK_DRAWS, generated on first
     *  use.  Thread-safe; the reference stays valid for the
     *  process's lifetime. */
    const Chunk &chunk(std::size_t c);

  private:
    JitterStream(const Rng &rng, Tick jitter_ps)
        : key(rng), jitterPs(jitter_ps), frontier(rng)
    {
    }

    const Rng key;
    const Tick jitterPs;
    std::mutex mu;
    Rng frontier;  ///< state after the last generated draw
    std::vector<std::unique_ptr<const Chunk>> chunks;
};

} // namespace mcd::sim

#endif // MCD_SIM_JITTER_HH
