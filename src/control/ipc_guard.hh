/**
 * @file
 * The IPC-collapse guard of Semeraro et al.'s attack/decay controller
 * (control/online.hh), shared by every controller that watches
 * per-interval IPC: `online`, the `hybrid` guard hook and both halves
 * of `learned`.  Each caller keeps its own drop threshold and its own
 * response to a collapse; only the reference dynamics live here.
 */

#ifndef MCD_CONTROL_IPC_GUARD_HH
#define MCD_CONTROL_IPC_GUARD_HH

#include <algorithm>

namespace mcd::control
{

/**
 * Tracks the best recent interval IPC and flags intervals whose IPC
 * collapsed below it.  The reference decays very slowly (x0.998 per
 * interval) so a gradual decline cannot drag it down with itself
 * (that failure mode is a death spiral).
 */
class IpcGuard
{
  public:
    /** @p drop_fraction: IPC drop, as a fraction of the reference,
     *  that counts as a collapse. */
    explicit IpcGuard(double drop_fraction) : drop(drop_fraction) {}

    /**
     * Fold one interval's @p ipc into the reference and report
     * whether it fell below `reference * (1 - drop)`.  Never true on
     * the first interval, which only seeds the reference.
     */
    bool
    collapsed(double ipc)
    {
        best = std::max(best * 0.998, ipc);
        bool hit = !first && ipc < best * (1.0 - drop);
        first = false;
        return hit;
    }

    /** Lower the reference by 1% after an override, so repeated
     *  overrides after a permanent phase change cannot pin the chip
     *  at full speed forever. */
    void relax() { best *= 0.99; }

  private:
    double drop;
    double best = 0.0;
    bool first = true;
};

} // namespace mcd::control

#endif // MCD_CONTROL_IPC_GUARD_HH
