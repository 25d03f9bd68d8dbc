/**
 * @file
 * The event-driven simulation kernel: per-domain clocks, the edge
 * scheduler that replaces the old min-scan-every-iteration main
 * loop, and the idle-edge fast-forward machinery.
 *
 * The kernel owns the four scaled-domain clocks and dispatches each
 * consumed rising edge to the DomainComponent attached to that
 * domain.  Edges are processed in global time order with ties broken
 * by domain index (front end first), exactly as the monolithic loop
 * did, and each processed edge accrues its clock-tree energy and
 * advances chip-wide leakage before the component runs.
 *
 * Fast-forward (SimConfig::fastForward, default on): a component
 * that reports no work (empty issue queue; or a drained, blocked
 * front end with a known unblock time) is *parked* while its clock
 * is not ramping.  Parked domains drop out of the per-iteration edge
 * scan entirely; when something wakes them — a dispatch into their
 * queue, a frequency-target write, or their known wake time
 * arriving — the skipped edges are replayed in batch: the clock
 * consumes them one at a time (one jitter draw per edge, so the edge
 * schedule is bit-identical to the slow path), while their dynamic
 * clock-tree energy is charged in closed form and the component
 * batch-accounts its per-edge counters.  Because a parked domain
 * never ramps, its voltage and frequency are constant across the
 * skipped span, and because leakage is charged per *processed* edge
 * over elapsed wall time, skipping edges only merges adjacent
 * leakage slices.  The only difference from the slow path is the
 * floating-point summation order of energy totals.
 */

#ifndef MCD_SIM_KERNEL_HH
#define MCD_SIM_KERNEL_HH

#include <array>
#include <cstdint>
#include <memory>

#include "power/power.hh"
#include "sim/clock.hh"
#include "sim/config.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace mcd::sim
{

/**
 * One clock domain's stage machinery, as seen by the kernel.
 */
class DomainComponent
{
  public:
    virtual ~DomainComponent() = default;

    /** Process the edge just consumed, at time @p now. */
    virtual void tick(Tick now) = 0;

    /**
     * How long this domain provably has no work: 0 = busy (schedule
     * every edge); Kernel::NEVER = idle until another domain calls
     * Kernel::wake(); any other value = idle until that time
     * arrives (edges strictly before it are no-ops).
     */
    virtual Tick idleHorizon() const = 0;

    /**
     * Account @p n fast-forwarded edges in batch: exactly the
     * counters a no-work tick() would have bumped (edge-count and
     * occupancy-sample statistics; the occupancy *sums* gain only
     * zeros while idle, so they need no update).  Energy is
     * accounted by the kernel.
     */
    virtual void skipped(std::uint64_t n) = 0;
};

/**
 * Edge scheduler and clock owner.  Construct, attach() one component
 * per scaled domain, then drive it step-wise: prologue(), stepOne()
 * until done, finish().  Processor::beginRun / stepEdge / finishRun
 * wrap exactly these calls, and the chip layer interleaves several
 * Processors' steps in global time order through them.
 */
class Kernel
{
  public:
    /** idleHorizon() value meaning "until somebody wakes me". */
    static constexpr Tick NEVER = ~static_cast<Tick>(0);

    Kernel(const SimConfig &cfg, power::PowerModel &power);

    void attach(Domain d, DomainComponent *c)
    {
        comps[domainIndex(d)] = c;
    }

    DomainClock &clock(Domain d) { return *clocks[domainIndex(d)]; }
    const DomainClock &clock(Domain d) const
    {
        return *clocks[domainIndex(d)];
    }

    /** Time of the last processed edge (0 before the first). */
    Tick now() const { return now_; }

    /** Edges consumed through fast-forward rather than processed. */
    std::uint64_t fastForwardedEdges() const { return ffEdges; }

    /**
     * Ramp domain @p d toward @p f, waking it if parked: a ramping
     * clock updates frequency and voltage at every edge, so its
     * edges must be processed until the ramp completes.
     */
    void setTarget(Domain d, Mhz f);

    /** Jump domain @p d to @p f instantly (pre-run initial state). */
    void jumpTo(Domain d, Mhz f);

    /**
     * Wake a parked domain: replay its skipped edges up to the
     * current time and return it to the edge scan.  Called by the
     * front end when it dispatches into an exec domain's queue (the
     * woken domain's edge *at* the current time, if any, is kept for
     * normal processing — ties run front end first, matching the
     * slow path).  No-op for domains that are not parked.
     */
    void wake(Domain d)
    {
        if (parked_[domainIndex(d)])
            replay(domainIndex(d), now_);
    }

    /**
     * Catch every parked domain's batch accounting (edge counts,
     * occupancy samples, clock-tree energy) up to the current time.
     * Called before shared per-interval statistics are read, so a
     * domain parked across an interval boundary cannot report its
     * idle edges into the wrong interval.  Woken domains simply
     * re-park after their next edge.
     */
    void syncStats()
    {
        for (Domain d : scaledDomains())
            wake(d);
    }

    // --- step-wise driving surface ---

    /** Before the first edge: park every idle domain (fast-forward
     *  on). */
    void
    prologue()
    {
        if (ff) {
            for (Domain d : scaledDomains())
                tryPark(domainIndex(d));
        }
    }

    /**
     * Time of the globally next edge, without consuming it.  May
     * replay a parked domain whose known wake time arrives before
     * any live edge — that replay is pure catch-up accounting and
     * would happen identically inside the next stepOne(), so peeking
     * early never changes the edge schedule or any counter.
     */
    Tick peekNextTime() { return clocks[nextEventDomain()]->nextEdge(); }

    /** Consume and process exactly one edge; returns the new time. */
    Tick
    stepOne()
    {
        std::size_t best = nextEventDomain();
        DomainClock &c = *clocks[best];
        now_ = c.nextEdge();
        c.advance();
        Domain dom = static_cast<Domain>(best);
        power.clockCycle(dom, c.voltage());
        chargeLeakage(now_);
        comps[best]->tick(now_);
        if (ff)
            tryPark(best);
        return now_;
    }

    /**
     * After the last edge: fast-forward every parked clock to the
     * final time, so per-clock statistics (edge counts, average
     * frequency) match the slow path.
     */
    void finish();

  private:
    /**
     * The domain whose edge is globally next, unparking any domain
     * whose known wake time arrives first.  Ties go to the lowest
     * index, as in the monolithic min-scan.
     */
    std::size_t
    nextEventDomain()
    {
        for (;;) {
            std::size_t best = 0;
            Tick best_t = scanKey(0);
            for (std::size_t d = 1; d < clocks.size(); ++d) {
                Tick t = scanKey(d);
                if (t < best_t) {
                    best = d;
                    best_t = t;
                }
            }
            if (!parked_[best])
                return best;
            if (best_t == NEVER)
                panic("kernel deadlock: every domain is parked "
                      "with no wake time");
            // A known wake time arrived: replay the skipped edges
            // and rescan.  The woken domain's next real edge may
            // still be later than another domain's.
            replay(best, best_t);
        }
    }

    Tick
    scanKey(std::size_t d) const
    {
        return parked_[d] ? wakeAt_[d] : clocks[d]->nextEdge();
    }

    bool
    anyRamping() const
    {
        for (const auto &c : clocks)
            if (c->ramping())
                return true;
        return false;
    }

    void tryPark(std::size_t d);
    /** Fast-forward a parked domain's clock to @p t and unpark it. */
    void replay(std::size_t d, Tick t);
    void chargeLeakage(Tick now);

    const SimConfig &cfg;
    power::PowerModel &power;
    std::array<std::unique_ptr<DomainClock>, NUM_SCALED_DOMAINS>
        clocks;
    std::array<DomainComponent *, NUM_SCALED_DOMAINS> comps{};
    std::array<bool, NUM_SCALED_DOMAINS> parked_{};
    std::array<Tick, NUM_SCALED_DOMAINS> wakeAt_{};
    bool ff;
    Tick now_ = 0;
    Tick lastLeakTime = 0;
    std::uint64_t ffEdges = 0;
};

} // namespace mcd::sim

#endif // MCD_SIM_KERNEL_HH
