/**
 * @file
 * An execution clock domain component (integer, floating point or
 * memory): issue select and functional-unit execution, including the
 * load/store timing through the L1D/L2/DRAM hierarchy for the memory
 * domain — the stage logic that runs on every edge of that domain's
 * clock.
 *
 * State lives on the owning Processor (the issue queues feed from
 * the shared ROB); this class is the per-domain *logic* plus its
 * scheduling contract with the Kernel: an exec domain is idle
 * exactly while its issue queue is empty, and only a front-end
 * dispatch can end that, so the kernel parks it until the front end
 * wakes it.
 *
 * There are no wakeup lists.  Each edge walks the queue in age order,
 * but an entry whose last failed attempt proved a wait that still
 * holds (IqEntry) is skipped without an attempt.  A failing attempt
 * has no side effects, so skipping it changes nothing.  The waits
 * never feed idleHorizon(): parking a domain with a non-empty queue
 * would merge leakage slices and so reorder energy sums.
 */

#ifndef MCD_SIM_EXEC_DOMAIN_HH
#define MCD_SIM_EXEC_DOMAIN_HH

#include <cstdint>

#include "sim/kernel.hh"
#include "util/types.hh"

namespace mcd::sim
{

class Processor;

/**
 * Issue-queue entry: a uop's seq plus the wait that its last failed
 * issue attempt proved.  ExecDomain::tick skips the entry while the
 * wait holds, which is exactly a failed attempt.
 */
struct IqEntry
{
    enum class Wait : std::uint8_t
    {
        None,      ///< try every edge
        Until,     ///< not before time `until`
        Producer,  ///< while uop `on` is in the ROB and not completed
        Edge,      ///< while this domain has fewer than `until` edges
                   ///< and uop `on` is in the ROB
    };
    std::uint64_t seq = 0;
    std::uint64_t on = 0;
    std::uint64_t until = 0;
    Wait wait = Wait::None;
};

class ExecDomain final : public DomainComponent
{
  public:
    ExecDomain(Processor &p, Domain d, int issue_width)
        : p(p), dom(d), width(issue_width)
    {
    }

    /** One domain edge: sample queue occupancy, then issue up to
     *  the domain's width of ready instructions in age order. */
    void tick(Tick now) override;

    /** Idle (until woken by a dispatch) iff the issue queue is
     *  empty. */
    Tick idleHorizon() const override;

    /** Skipped edges advance the occupancy sample count only (the
     *  occupancy sum gains zeros while the queue is empty). */
    void skipped(std::uint64_t n) override;

  private:
    /** Whether @p e's recorded wait still holds at @p now. */
    bool waiting(const IqEntry &e, Tick now) const;

    /** Issue @p e's uop if it can issue at @p now; otherwise record
     *  in @p e the wait that the failing check proved (none for a
     *  busy functional unit) and change nothing else. */
    bool tryIssue(Tick now, IqEntry &e);

    /** Whether the value of uop @p producer_seq (0 = none) is usable
     *  in this domain at @p now; if not, record the wait in @p e. */
    bool operandReady(std::uint64_t producer_seq, Tick now,
                      IqEntry &e) const;

    Processor &p;
    Domain dom;
    int width;
};

} // namespace mcd::sim

#endif // MCD_SIM_EXEC_DOMAIN_HH
