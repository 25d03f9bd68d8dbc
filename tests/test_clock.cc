/**
 * @file
 * Tests for domain clocks: edges, jitter bounds, DVFS ramping,
 * voltage tracking, synchronization margins, and the exactness of
 * the shared jitter streams against direct Rng::clampedNormal draws.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "sim/clock.hh"
#include "sim/jitter.hh"

using namespace mcd;
using namespace mcd::sim;

namespace
{

SimConfig
cfg()
{
    return SimConfig{};
}

/** The edge a direct draw @p j gives: the reference formula. */
Tick
directEdge(Tick nominal, double j, Tick lo)
{
    return static_cast<Tick>(std::max(static_cast<double>(nominal) + j,
                                      static_cast<double>(lo)));
}

/** The code-path edge for draw @p j. */
Tick
streamEdge(Tick nominal, double j, Tick lo)
{
    return codedEdge(nominal, encodeJitter(j), lo);
}

/**
 * Reference clock: DomainClock's edge and ramp model with one
 * Rng::clampedNormal draw per edge, the definition that the shared
 * jitter streams must reproduce edge for edge.
 */
class DirectClock
{
  public:
    DirectClock(const SimConfig &c, bool jitter, Rng r)
        : cfg(c), jitterOn(jitter), rng(r), cur(c.maxMhz),
          target(c.maxMhz), period(periodPs(c.maxMhz)), nominal(period),
          next(nominal)
    {
        if (jitterOn)
            next = static_cast<Tick>(std::max<double>(
                1.0, static_cast<double>(nominal) + draw()));
    }

    Tick nextEdge() const { return next; }
    Mhz freq() const { return cur; }

    void
    advance()
    {
        Tick now = next;
        last = now;
        if (cur != target) {
            double delta =
                static_cast<double>(period) / 1000.0 / cfg.rampNsPerMhz;
            cur = cur < target ? std::min(target, cur + delta)
                               : std::max(target, cur - delta);
            period = periodPs(cur);
        }
        nominal += period;
        next = nominal;
        if (jitterOn)
            next = static_cast<Tick>(
                std::max(static_cast<double>(nominal) + draw(),
                         static_cast<double>(now) + 1.0));
    }

    void
    setTarget(Mhz f)
    {
        target = std::clamp(f, cfg.minMhz, cfg.maxMhz);
    }

    void
    jumpTo(Mhz f)
    {
        target = std::clamp(f, cfg.minMhz, cfg.maxMhz);
        cur = target;
        period = periodPs(cur);
        nominal = last + period;
        next = nominal;
    }

  private:
    double
    draw()
    {
        double bound = static_cast<double>(cfg.jitterPs);
        return rng.clampedNormal(0.0, bound / 3.0, bound);
    }

    const SimConfig &cfg;
    bool jitterOn;
    Rng rng;
    Mhz cur;
    Mhz target;
    Tick period;
    Tick nominal;
    Tick next;
    Tick last = 0;
};

/** The four clock generators Kernel derives from @p seed, in domain
 *  order. */
std::vector<Rng>
kernelClockRngs(std::uint64_t seed)
{
    Rng seed_rng(seed);
    std::vector<Rng> out;
    for (int d = 0; d < NUM_SCALED_DOMAINS; ++d)
        out.push_back(seed_rng.fork());
    return out;
}

} // namespace

TEST(DomainClock, NominalPeriodAtFullSpeed)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(1));
    Tick e0 = clk.nextEdge();
    EXPECT_EQ(e0, 1000u);  // 1 GHz -> 1000 ps
    clk.advance();
    EXPECT_EQ(clk.nextEdge(), 2000u);
}

TEST(DomainClock, JitterBoundedAndMonotonic)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, true, Rng(2));
    Tick prev = 0;
    for (int i = 1; i <= 5000; ++i) {
        Tick e = clk.nextEdge();
        ASSERT_GT(e, prev);
        // nominal edge is i*1000; jitter bounded by 110 ps
        ASSERT_GE(e + 110, static_cast<Tick>(i) * 1000);
        ASSERT_LE(e, static_cast<Tick>(i) * 1000 + 110);
        prev = e;
        clk.advance();
    }
}

TEST(DomainClock, VoltageTracksFrequency)
{
    SimConfig c = cfg();
    EXPECT_DOUBLE_EQ(c.voltageFor(1000.0), 1.20);
    EXPECT_DOUBLE_EQ(c.voltageFor(250.0), 0.65);
    EXPECT_NEAR(c.voltageFor(625.0), 0.925, 1e-12);
    EXPECT_DOUBLE_EQ(c.voltageFor(100.0), 0.65);   // clamped
    EXPECT_DOUBLE_EQ(c.voltageFor(2000.0), 1.20);  // clamped
}

TEST(DomainClock, RampTakesTimeProportionalToDelta)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(3));
    clk.setTarget(500.0);
    // Full 1000->500 MHz swing at 73.3 ns/MHz = 36.65 us.
    Tick t = 0;
    while (clk.freq() > 500.0) {
        t = clk.nextEdge();
        clk.advance();
        ASSERT_LT(t, 60ULL * 1000 * 1000) << "ramp never completed";
    }
    double expected_ns = 500.0 * c.rampNsPerMhz;
    EXPECT_NEAR(static_cast<double>(t) / 1000.0, expected_ns,
                expected_ns * 0.1);
}

TEST(DomainClock, RampIsGradualNotInstant)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(4));
    clk.setTarget(250.0);
    clk.advance();
    // After one edge the frequency has barely moved.
    EXPECT_GT(clk.freq(), 990.0);
    EXPECT_LT(clk.freq(), 1000.0);
}

TEST(DomainClock, TargetClampedToLegalRange)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(5));
    clk.setTarget(50.0);
    EXPECT_DOUBLE_EQ(clk.target(), 250.0);
    clk.setTarget(5000.0);
    EXPECT_DOUBLE_EQ(clk.target(), 1000.0);
}

TEST(DomainClock, JumpToSetsImmediately)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(6));
    clk.jumpTo(500.0);
    EXPECT_DOUBLE_EQ(clk.freq(), 500.0);
    EXPECT_NEAR(clk.voltage(), c.voltageFor(500.0), 1e-12);
    EXPECT_EQ(clk.nextEdge(), 2000u);  // 500 MHz -> 2000 ps period
}

TEST(DomainClock, AverageFreqReflectsHistory)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(7));
    for (int i = 0; i < 100; ++i)
        clk.advance();
    EXPECT_NEAR(clk.averageFreq(), 1000.0, 1.0);
}

TEST(SyncMargin, ZeroSameDomainOrSingleClock)
{
    SimConfig c = cfg();
    EXPECT_EQ(syncMarginPs(c, Domain::Integer, Domain::Integer, 1000,
                           1000),
              0u);
    SimConfig sc = cfg();
    sc.singleClock = true;
    EXPECT_EQ(syncMarginPs(sc, Domain::Integer, Domain::FrontEnd, 1000,
                           1000),
              0u);
}

TEST(SyncMargin, ThirtyPercentOfFasterClock)
{
    SimConfig c = cfg();
    // Both at 1 GHz: 300 ps (Table 1's synchronization window).
    EXPECT_EQ(syncMarginPs(c, Domain::Integer, Domain::FrontEnd, 1000,
                           1000),
              300u);
    // One domain at 250 MHz: window still set by the faster clock.
    EXPECT_EQ(syncMarginPs(c, Domain::Integer, Domain::FrontEnd, 4000,
                           1000),
              300u);
    EXPECT_EQ(syncMarginPs(c, Domain::Integer, Domain::FrontEnd, 1000,
                           4000),
              300u);
}

TEST(DomainClock, JumpToClampedToLegalRange)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(8));
    clk.jumpTo(10.0);
    EXPECT_DOUBLE_EQ(clk.freq(), c.minMhz);
    EXPECT_DOUBLE_EQ(clk.voltage(), c.minVolt);
    clk.jumpTo(99999.0);
    EXPECT_DOUBLE_EQ(clk.freq(), c.maxMhz);
    EXPECT_DOUBLE_EQ(clk.voltage(), c.maxVolt);
}

TEST(DomainClock, AverageFreqTimeWeightedAcrossRamp)
{
    // Dwell at 1 GHz, ramp to 500 MHz, dwell there: the average must
    // sit strictly between the endpoints and move toward 500 as the
    // low-frequency dwell grows (time weighting, not edge counting).
    // A fast ramp keeps the transition negligible next to the dwells
    // so the two plateaus dominate the closed form below.
    SimConfig c = cfg();
    c.rampNsPerMhz = 0.1;
    DomainClock clk(c, Domain::Integer, false, Rng(9));
    for (int i = 0; i < 1000; ++i)
        clk.advance();
    clk.setTarget(500.0);
    while (clk.ramping())
        clk.advance();
    for (int i = 0; i < 1000; ++i)
        clk.advance();
    Mhz mid = clk.averageFreq();
    EXPECT_GT(mid, 500.0);
    EXPECT_LT(mid, 1000.0);
    // 1000 more edges at 500 MHz cover twice the time of the initial
    // 1000 edges at 1 GHz; the average must keep falling.
    for (int i = 0; i < 1000; ++i)
        clk.advance();
    Mhz later = clk.averageFreq();
    EXPECT_LT(later, mid);
    // Closed form ignoring the (short) ramp: the dwell times weight
    // the two plateaus.  The ramp pulls the true value slightly up.
    double t_fast = 1000.0 * 1000.0;      // 1000 edges @ 1000 ps
    double t_slow = 2000.0 * 2000.0;      // 2000 edges @ 2000 ps
    double plateau_avg =
        (1000.0 * t_fast + 500.0 * t_slow) / (t_fast + t_slow);
    EXPECT_NEAR(later, plateau_avg, 25.0);
    EXPECT_GT(later, plateau_avg);
}

TEST(DomainClock, FastForwardMatchesStepwiseAdvance)
{
    // fastForwardTo must be indistinguishable from stepping
    // advance() edge by edge: same edge count, same (jittered) next
    // edge, same average frequency — the determinism argument for
    // the kernel's idle-edge fast-forward.
    SimConfig c = cfg();
    DomainClock stepped(c, Domain::Memory, true, Rng(10));
    DomainClock jumped(c, Domain::Memory, true, Rng(10));
    const Tick t = 5'000'500;
    std::uint64_t n = 0;
    while (stepped.nextEdge() < t) {
        stepped.advance();
        ++n;
    }
    EXPECT_EQ(jumped.fastForwardTo(t), n);
    EXPECT_GT(n, 4900u);
    EXPECT_EQ(jumped.edges(), stepped.edges());
    EXPECT_EQ(jumped.nextEdge(), stepped.nextEdge());
    EXPECT_GE(jumped.nextEdge(), t);  // consumed edges before t only
    EXPECT_DOUBLE_EQ(jumped.averageFreq(), stepped.averageFreq());
    // ... and the streams stay aligned afterwards.
    for (int i = 0; i < 100; ++i) {
        stepped.advance();
        jumped.advance();
        EXPECT_EQ(jumped.nextEdge(), stepped.nextEdge());
    }
}

/** Ramp property over a sweep of targets: always converges. */
class RampSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RampSweep, ConvergesToTarget)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Memory, true, Rng(11));
    Mhz target = static_cast<Mhz>(GetParam());
    clk.setTarget(target);
    for (int i = 0; i < 200000 && clk.freq() != clk.target(); ++i)
        clk.advance();
    EXPECT_DOUBLE_EQ(clk.freq(), clk.target());
    EXPECT_NEAR(clk.voltage(), c.voltageFor(target), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Targets, RampSweep,
                         ::testing::Values(250, 300, 475, 500, 725, 900,
                                           1000));

// ---------------------------------------------------------------- //
// Shared jitter streams: every coded edge equals the direct draw's.  //

TEST(JitterStream, KernelStreamsMatchDirectDrawsInEveryBinade)
{
    // Every draw of the four streams the default Kernel builds, up to
    // 2^20 each, with the nominal edge in every binade from 2^10 to
    // 2^51 and a floor that sometimes binds.
    constexpr std::size_t DRAWS = std::size_t{1} << 20;
    SimConfig c = cfg();
    for (Rng direct : kernelClockRngs(c.jitterSeed)) {
        JitterStream *stream = JitterStream::of(direct, c.jitterPs);
        ASSERT_NE(stream, nullptr);
        std::uint64_t mismatches = 0;
        for (std::size_t i = 0; i < DRAWS; ++i) {
            double j = drawJitter(direct, c.jitterPs);
            const JitterCode code =
                stream->chunk(i / JitterStream::CHUNK_DRAWS)
                    .codes[i % JitterStream::CHUNK_DRAWS];
            ASSERT_EQ(code.floorPs, static_cast<int>(std::floor(j)));
            for (int b = 10; b <= 51; ++b) {
                Tick base = Tick{1} << b;
                Tick n = base + (i * 0x9E3779B97F4A7C15ULL) % base;
                Tick lo = n - 128 + i % 256;
                if (codedEdge(n, code, lo) != directEdge(n, j, lo))
                    ++mismatches;
            }
        }
        EXPECT_EQ(mismatches, 0u);
    }
}

TEST(JitterStream, RoundUpBoundariesAreExact)
{
    // Fractions at each round-up boundary 1 - 2^(e-53) and one ulp on
    // either side, with M = N + k at the bottom, just above and at the
    // top of binades e-1, e and e+1.
    const int ks[] = {-127, -110, -2, -1, 0, 1, 2, 109, 126};
    for (int e = 0; e <= 51; ++e) {
        double frac = 1.0 - std::ldexp(1.0, e - 53);
        for (int k : ks) {
            double j0 = k + frac;
            for (double j : {std::nextafter(j0, -1e9), j0,
                             std::nextafter(j0, 1e9)}) {
                if (std::floor(j) > 126 || std::floor(j) < -127)
                    continue;
                for (int bin = std::max(0, e - 1);
                     bin <= std::min(51, e + 1); ++bin) {
                    std::int64_t bottom = std::int64_t{1} << bin;
                    for (std::int64_t m :
                         {bottom, bottom + 1, 2 * bottom - 1}) {
                        std::int64_t n = m - k;
                        if (n < 1)
                            continue;
                        Tick nt = static_cast<Tick>(n);
                        EXPECT_EQ(streamEdge(nt, j, 1),
                                  directEdge(nt, j, 1))
                            << "e=" << e << " k=" << k << " m=" << m;
                    }
                }
            }
        }
        // The construction really straddles the boundary: the exact
        // fraction rounds up from binade e on, and not below it.
        Tick at = Tick{1} << e;
        EXPECT_EQ(directEdge(at, frac, 1), at + 1) << "e=" << e;
        if (e > 0) {
            EXPECT_EQ(directEdge(at / 2, frac, 1), at / 2) << "e=" << e;
        }
    }
}

TEST(JitterStream, DrawsNearZeroAreExact)
{
    // A tiny negative draw lies just below the integer N, so it must
    // round up to N in every binade; j - k = j + 1 would round to 1.0
    // and lose that.  Tiny positive draws and signed zeros never
    // round.
    const double tiny = std::numeric_limits<double>::denorm_min();
    for (double j : {-tiny, -0x1p-60, -0x1p-55, -0x1p-54, -0x1p-53,
                     -0.0, 0.0, tiny, 0x1p-60, 0x1p-53}) {
        for (int b = 1; b <= 51; ++b) {
            Tick n = (Tick{1} << b) + 3;
            EXPECT_EQ(streamEdge(n, j, 1), directEdge(n, j, 1))
                << "j=" << j << " b=" << b;
        }
    }
}

TEST(JitterStream, TooWideABoundHasNoStream)
{
    EXPECT_NE(JitterStream::of(Rng(1), MAX_CODED_JITTER_PS), nullptr);
    EXPECT_EQ(JitterStream::of(Rng(1), MAX_CODED_JITTER_PS + 1),
              nullptr);
}

TEST(JitterStream, EqualStatesShareOneStream)
{
    JitterStream *s = JitterStream::of(Rng(21), 110);
    EXPECT_EQ(JitterStream::of(Rng(21), 110), s);
    EXPECT_NE(JitterStream::of(Rng(22), 110), s);
    EXPECT_NE(JitterStream::of(Rng(21), 100), s);
}

/** A stream-reading clock against the direct-draw reference over
 *  10^6 edges: full speed, a ramp down, a jumpTo, a fast-forward and
 *  a ramp up. */
class StreamClockVsDirect : public ::testing::TestWithParam<int>
{
};

TEST_P(StreamClockVsDirect, MillionEdgesThroughRampAndJump)
{
    SimConfig c = cfg();
    c.jitterPs = static_cast<Tick>(GetParam());
    const Rng seed(std::uint64_t{0x5EED0000} +
                   static_cast<std::uint64_t>(GetParam()));
    DomainClock clk(c, Domain::Memory, true, seed);
    DirectClock ref(c, true, seed);
    std::uint64_t edges = 0;
    std::uint64_t mismatches = 0;
    auto step = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            if (clk.nextEdge() != ref.nextEdge() ||
                clk.freq() != ref.freq())
                ++mismatches;
            clk.advance();
            ref.advance();
            ++edges;
        }
    };
    step(200'000);
    clk.setTarget(400.0);
    ref.setTarget(400.0);
    step(200'000);
    EXPECT_FALSE(clk.ramping());
    clk.jumpTo(700.0);
    ref.jumpTo(700.0);
    step(100'000);
    // Fast-forward one clock across ~150k edges; the reference steps.
    Tick until = ref.nextEdge() + 150'000 * periodPs(700.0);
    std::uint64_t skipped = clk.fastForwardTo(until);
    std::uint64_t stepped = 0;
    while (ref.nextEdge() < until) {
        ref.advance();
        ++stepped;
    }
    EXPECT_EQ(skipped, stepped);
    edges += stepped;
    clk.setTarget(1000.0);
    ref.setTarget(1000.0);
    step(1'000'000 - edges);
    EXPECT_EQ(clk.edges(), 1'000'000u);
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(clk.nextEdge(), ref.nextEdge());
}

INSTANTIATE_TEST_SUITE_P(Bounds, StreamClockVsDirect,
                         ::testing::Values(0, 110, 127, 128, 200));

TEST(JitterStream, EdgesPastTwoToThe52ResyncExactly)
{
    // At a tiny minimum frequency the nominal grid passes 2^52 ps
    // after ~70k edges, in the stream's second chunk; the clock must
    // switch to direct draws there without moving an edge.
    SimConfig c = cfg();
    c.minMhz = 1e6 / 6.4e10;
    const Rng seed(0xB16B00B5ULL);
    DomainClock clk(c, Domain::Integer, true, seed);
    DirectClock ref(c, true, seed);
    clk.jumpTo(c.minMhz);
    ref.jumpTo(c.minMhz);
    std::uint64_t mismatches = 0;
    for (int i = 0; i < 90'000; ++i) {
        if (clk.nextEdge() != ref.nextEdge())
            ++mismatches;
        clk.advance();
        ref.advance();
    }
    EXPECT_GT(clk.nextEdge(), Tick{1} << 52);
    EXPECT_EQ(mismatches, 0u);
}

TEST(JitterStreamConcurrency, FourThreadsRaceAcrossChunkBoundaries)
{
    // Four threads build clocks on one fresh stream at the same time,
    // so chunks are generated while other threads read; each thread's
    // edge sequence must equal the serial direct-draw one.
    SimConfig c = cfg();
    const Rng seed(0xC0C0A5EEDULL);
    constexpr std::size_t EDGES = 3 * JitterStream::CHUNK_DRAWS + 1000;
    std::vector<Tick> want;
    DirectClock ref(c, true, seed);
    for (std::size_t i = 0; i < EDGES; ++i) {
        want.push_back(ref.nextEdge());
        ref.advance();
    }
    std::vector<std::vector<Tick>> got(4);
    std::vector<std::thread> threads;
    for (auto &out : got) {
        threads.emplace_back([&c, &seed, &out] {
            DomainClock clk(c, Domain::Integer, true, seed);
            for (std::size_t i = 0; i < EDGES; ++i) {
                out.push_back(clk.nextEdge());
                clk.advance();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const auto &out : got)
        EXPECT_EQ(out, want);
}
