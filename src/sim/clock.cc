#include "sim/clock.hh"

#include <algorithm>

namespace mcd::sim
{

Volt
SimConfig::voltageFor(Mhz f) const
{
    if (f <= minMhz)
        return minVolt;
    if (f >= maxMhz)
        return maxVolt;
    double t = (f - minMhz) / (maxMhz - minMhz);
    return minVolt + t * (maxVolt - minVolt);
}

DomainClock::DomainClock(const SimConfig &c, Domain d, bool jitter,
                         Rng r)
    : cfg(c), domain(d), jitterOn(jitter), rng(r),
      curMhz(c.maxMhz), targetMhz(c.maxMhz),
      volt(c.voltageFor(c.maxMhz)), curPeriod(periodPs(c.maxMhz)),
      nominalNext(curPeriod), jitteredNext(nominalNext),
      lastEdge(0), edgeCount(0), freqTimeIntegral(0.0), startTime(0)
{
    if (jitterOn) {
        double j = rng.clampedNormal(
            0.0, static_cast<double>(cfg.jitterPs) / 3.0,
            static_cast<double>(cfg.jitterPs));
        jitteredNext = static_cast<Tick>(
            std::max<double>(1.0, static_cast<double>(nominalNext) + j));
    }
}

void
DomainClock::advance()
{
    Tick now = jitteredNext;
    freqTimeIntegral += curMhz * static_cast<double>(now - lastEdge);
    lastEdge = now;
    ++edgeCount;

    // Ramp the effective frequency toward the target: 1 MHz per
    // rampNsPerMhz nanoseconds of elapsed time.
    if (curMhz != targetMhz) {
        double elapsed_ns = static_cast<double>(curPeriod) / 1000.0;
        double delta = elapsed_ns / cfg.rampNsPerMhz;
        if (curMhz < targetMhz)
            curMhz = std::min(targetMhz, curMhz + delta);
        else
            curMhz = std::max(targetMhz, curMhz - delta);
        volt = cfg.voltageFor(curMhz);
        curPeriod = periodPs(curMhz);
    }

    // The nominal grid advances jitter-free; jitter perturbs each
    // edge independently (no random-walk drift).
    nominalNext += curPeriod;
    jitteredNext = nominalNext;
    if (jitterOn) {
        double j = rng.clampedNormal(
            0.0, static_cast<double>(cfg.jitterPs) / 3.0,
            static_cast<double>(cfg.jitterPs));
        double cand = static_cast<double>(nominalNext) + j;
        double floor_t = static_cast<double>(now) + 1.0;
        jitteredNext = static_cast<Tick>(std::max(cand, floor_t));
    }
}

std::uint64_t
DomainClock::fastForwardTo(Tick t)
{
    // Consuming each edge through advance() keeps the edge schedule
    // bit-identical to stepping by construction: one jitter draw per
    // edge, the same arithmetic.  (A hand-specialized loop saves
    // nothing measurable — the Box-Muller jitter draw dominates.)
    std::uint64_t n = 0;
    while (jitteredNext < t) {
        advance();
        ++n;
    }
    return n;
}

Mhz
DomainClock::averageFreq() const
{
    Tick span = lastEdge - startTime;
    if (span == 0)
        return curMhz;
    return freqTimeIntegral / static_cast<double>(span);
}

void
DomainClock::setTarget(Mhz f)
{
    targetMhz = std::clamp(f, cfg.minMhz, cfg.maxMhz);
}

void
DomainClock::jumpTo(Mhz f)
{
    targetMhz = std::clamp(f, cfg.minMhz, cfg.maxMhz);
    curMhz = targetMhz;
    volt = cfg.voltageFor(curMhz);
    curPeriod = periodPs(curMhz);
    nominalNext = lastEdge + curPeriod;
    jitteredNext = nominalNext;
}

} // namespace mcd::sim
