/**
 * @file
 * The on-line hardware attack/decay controller of Semeraro et
 * al. [29] (MICRO 2002), used by the paper as its on-line baseline.
 *
 * At fixed instruction intervals, per-domain queue utilization is
 * examined: a significant change triggers an "attack" (a large
 * frequency step in the direction of the change); otherwise the
 * frequency "decays" slowly downward.  An IPC guard
 * (control::IpcGuard) returns all domains to speed when performance
 * collapses.  The `aggressiveness` knob scales the decay (and relaxes
 * the guard), producing the energy-versus-slowdown trade-off curve of
 * Figures 10/11.
 */

#ifndef MCD_CONTROL_ONLINE_HH
#define MCD_CONTROL_ONLINE_HH

#include <array>
#include <cstdint>

#include "control/ipc_guard.hh"
#include "sim/config.hh"
#include "sim/trace.hh"

namespace mcd::control
{

/**
 * Attack/decay parameters.
 *
 * All frequency moves are expressed relative to the hardware range
 * [`sim::SimConfig::minMhz`, `maxMhz`] (250–1000 MHz by default);
 * the resulting per-domain frequency request is in MHz and voltage
 * follows it via `SimConfig::voltageFor()` (650–1200 mV).  Queue
 * utilizations are occupancy fractions in [0, 1] averaged over the
 * evaluation interval.
 */
struct OnlineConfig
{
    /**
     * Controller evaluation interval, in committed instructions.
     * Each interval the controller inspects per-domain queue
     * utilization and adjusts that domain's frequency.
     */
    std::uint64_t intervalInstrs = 2'000;
    /**
     * Attack step, as a fraction of the full MHz range
     * (0.10 = 75 MHz with the default 250–1000 MHz range): the jump
     * applied when utilization changes significantly.
     */
    double attackStep = 0.10;
    /**
     * Decay per interval, multiplicative (0.03 = frequency drifts
     * down 3% per quiet interval, scaled by `aggressiveness`).
     */
    double decayStep = 0.03;
    /**
     * Utilization change, in absolute occupancy-fraction units
     * (0.12 = twelve points of queue occupancy), between consecutive
     * intervals that triggers an attack instead of decay.
     */
    double changeThresh = 0.12;
    /**
     * Utilization (fraction of queue capacity) below which a domain
     * is considered idle and dropped toward `minMhz`.
     */
    double idleThresh = 0.02;
    /**
     * IPC drop, as a fraction of the best recent interval IPC, that
     * triggers recovery: all domains return to `maxMhz`.
     */
    double ipcGuard = 0.10;
    /**
     * The energy-versus-slowdown trade-off knob of Figures 10/11
     * (dimensionless, 1.0 = the paper's default operating point):
     * scales `decayStep` and relaxes `ipcGuard`, so larger values
     * save more energy at more slowdown.
     */
    double aggressiveness = 1.0;

    /**
     * Queue capacities, in entries; must match the simulated core
     * (`sim::SimConfig`) so occupancy fractions are meaningful.
     */
    int intIqSize = 20;
    int fpIqSize = 15;
    int lsqSize = 64;
    int robSize = 80;
};

/**
 * IntervalHook implementation of the attack/decay algorithm.
 */
class AttackDecayController : public sim::IntervalHook
{
  public:
    explicit AttackDecayController(
        const OnlineConfig &cfg = OnlineConfig(),
        const sim::SimConfig &sim_cfg = sim::SimConfig());

    void onInterval(const sim::IntervalStats &s,
                    sim::DvfsControl &ctl) override;

    /** Number of attack events so far (diagnostics). */
    std::uint64_t attacks() const { return nAttacks; }
    /** Number of IPC-guard recoveries so far. */
    std::uint64_t recoveries() const { return nRecoveries; }

  private:
    OnlineConfig cfg;
    Mhz fMin;
    Mhz fMax;
    IpcGuard guard;
    std::array<double, NUM_SCALED_DOMAINS> prevUtil{};
    bool first = true;
    std::uint64_t nAttacks = 0;
    std::uint64_t nRecoveries = 0;
};

} // namespace mcd::control

#endif // MCD_CONTROL_ONLINE_HH
