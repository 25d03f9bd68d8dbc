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
        stream = JitterStream::of(rng, cfg.jitterPs);
        if (stream)
            chunk = &stream->chunk(0);
        jitteredNext = jittered(nominalNext, 1);
    }
}

Tick
DomainClock::jittered(Tick nominal, Tick lo)
{
    if (stream) {
        if (pos == JitterStream::CHUNK_DRAWS) {
            chunk = &stream->chunk(++chunkIdx);
            pos = 0;
        }
        JitterCode c = chunk->codes[pos];
        if (static_cast<std::int64_t>(nominal) + c.floorPs <
            CODED_EDGE_LIMIT) {
            ++pos;
            return codedEdge(nominal, c, lo);
        }
        // Past 2^52 ps: resync the clock's own generator to this
        // draw and draw directly from here on.
        rng = chunk->start;
        for (std::size_t i = 0; i < pos; ++i)
            drawJitter(rng, cfg.jitterPs);
        stream = nullptr;
    }
    double j = drawJitter(rng, cfg.jitterPs);
    return static_cast<Tick>(std::max(static_cast<double>(nominal) + j,
                                      static_cast<double>(lo)));
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
    // edge independently (no random-walk drift), and an edge never
    // falls before the previous one plus 1 ps.
    nominalNext += curPeriod;
    jitteredNext =
        jitterOn ? jittered(nominalNext, now + 1) : nominalNext;
}

std::uint64_t
DomainClock::fastForwardTo(Tick t)
{
    // Consuming each edge through advance() keeps the edge schedule
    // bit-identical to stepping by construction: one jitter draw per
    // edge, the same arithmetic.  A draw is a two-byte stream read,
    // so the per-edge bookkeeping in advance() is the whole cost.
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
