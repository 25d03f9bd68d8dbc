/**
 * @file
 * Per-domain clocks with jitter and ramped dynamic frequency/voltage
 * scaling (Section 2 of the paper).
 *
 * A running program initiates reconfiguration by writing the target
 * frequencies; the clock then ramps its effective frequency linearly
 * at the XScale-like rate (73.3 ns/MHz) while execution continues.
 */

#ifndef MCD_SIM_CLOCK_HH
#define MCD_SIM_CLOCK_HH

#include <algorithm>

#include "sim/config.hh"
#include "sim/jitter.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace mcd::sim
{

/**
 * One clock domain's clock generator.
 *
 * Edges are produced one at a time: nextEdge() peeks the upcoming
 * rising edge (with jitter applied); advance() consumes it.  The
 * effective frequency is updated at each consumed edge according to
 * the ramp model.
 */
class DomainClock
{
  public:
    /**
     * @param cfg     shared configuration
     * @param d       which domain this clock drives
     * @param jitter  whether to apply jitter (off in single-clock mode)
     * @param rng     jitter generator state (copied in).  The clock
     *                reads the draws from the process-wide
     *                JitterStream of (rng, cfg.jitterPs), or draws
     *                them from its own copy when cfg.jitterPs is too
     *                wide to encode.
     */
    DomainClock(const SimConfig &cfg, Domain d, bool jitter, Rng rng);

    /** Time of the next rising edge (jittered), in ps. */
    Tick nextEdge() const { return jitteredNext; }

    /** Consume the pending edge and schedule the following one. */
    void advance();

    /** Effective frequency at the last consumed edge. */
    Mhz freq() const { return curMhz; }

    /** Supply voltage tracking the effective frequency. */
    Volt voltage() const { return volt; }

    /**
     * Current period in ps at the effective frequency.  Cached:
     * refreshed wherever the effective frequency moves (a ramping
     * advance(), jumpTo()), so this is a load, not a division.
     */
    Tick period() const { return curPeriod; }

    /** Request a new target frequency (clamped to legal range). */
    void setTarget(Mhz f);

    /**
     * Jump instantly to frequency @p f (clamped); used to establish
     * initial conditions before simulated time begins, not during a
     * run (real reconfigurations ramp).
     */
    void jumpTo(Mhz f);

    Mhz target() const { return targetMhz; }

    /** Whether the effective frequency is still moving to target. */
    bool ramping() const { return curMhz != targetMhz; }

    /** Number of edges consumed so far. */
    std::uint64_t edges() const { return edgeCount; }

    /**
     * Consume every edge strictly before time @p t and return how
     * many were consumed.  Each edge goes through advance(), so the
     * jitter sequence sees exactly one draw per edge and the
     * resulting edge times are bit-identical to stepping edge by
     * edge — this is what makes the kernel's idle-domain
     * fast-forward deterministic.  Callers only fast-forward
     * non-ramping clocks (the kernel parks a domain only when
     * ramping() is false), so frequency and voltage are constant
     * across the span.
     */
    std::uint64_t fastForwardTo(Tick t);

    /**
     * Time-weighted average frequency since construction (for
     * reporting).
     */
    Mhz averageFreq() const;

  private:
    /** The jittered edge for nominal time @p nominal, at least @p lo:
     *  consumes one draw. */
    Tick jittered(Tick nominal, Tick lo);

    const SimConfig &cfg;
    Domain domain;
    bool jitterOn;
    Rng rng;  ///< direct draws; unused while reading a stream
    /** Shared draws; nullptr for direct draws or no jitter. */
    JitterStream *stream = nullptr;
    const JitterStream::Chunk *chunk = nullptr;
    std::size_t chunkIdx = 0;
    std::size_t pos = 0;  ///< next draw's index in *chunk
    Mhz curMhz;
    Mhz targetMhz;
    Volt volt;
    Tick curPeriod;      ///< periodPs(curMhz), kept in step with it
    Tick nominalNext;    ///< unjittered next edge
    Tick jitteredNext;
    Tick lastEdge;
    std::uint64_t edgeCount;
    double freqTimeIntegral;  ///< MHz * ps, for averageFreq()
    Tick startTime;
};

/**
 * Synchronization margin between two domains: a value produced at
 * time t in @p src is usable in @p dst only at a dst edge at least
 * this much later (Sjogren-Myers synchronizer; within the window the
 * consumer waits one extra cycle).  Zero for same-domain or
 * single-clock operation.  Inline: every cross-domain operand check
 * of the processor model goes through it.
 */
inline Tick
syncMarginPs(const SimConfig &cfg, Domain src, Domain dst,
             Tick src_period, Tick dst_period)
{
    if (cfg.singleClock || src == dst)
        return 0;
    Tick faster = std::min(src_period, dst_period);
    return static_cast<Tick>(cfg.syncWindowFrac *
                             static_cast<double>(faster));
}

} // namespace mcd::sim

#endif // MCD_SIM_CLOCK_HH
