/**
 * @file
 * The "global" baseline of Figure 7: the MCD processor with all four
 * domains at one voltage/frequency, chosen per benchmark so that
 * total run time approximately matches a target (the paper matches
 * the off-line algorithm's run time).
 */

#ifndef MCD_CONTROL_GLOBALDVS_HH
#define MCD_CONTROL_GLOBALDVS_HH

#include <cstdint>
#include <memory>

#include "power/power.hh"
#include "sim/processor.hh"
#include "workload/program.hh"

namespace mcd::control
{

/** Result of the global-DVS search. */
struct GlobalDvsResult
{
    /**
     * Chosen chip-wide frequency in MHz, within
     * [`SimConfig::minMhz`, `maxMhz`]; the whole chip runs at the
     * matching supply voltage (`SimConfig::voltageFor()`, 650–1200
     * mV over the default range).
     */
    Mhz freq = 0.0;
    sim::RunResult run;   ///< run at that frequency
};

/**
 * Find (by bisection) the single chip frequency whose run time, with
 * every domain at that frequency, best matches @p target_time_ps
 * without exceeding it by more than the search tolerance, and return
 * that run.
 *
 * Unlike the other controllers this baseline has no slowdown target
 * of its own: the paper gives it the off-line oracle's achieved run
 * time as @p target_time_ps, so it represents what conventional
 * chip-wide DVFS could do under the same performance budget.
 *
 * @param program    workload
 * @param input      input set
 * @param scfg       simulator configuration, used unchanged: the
 *                   search keeps the MCD substrate and its
 *                   synchronization penalties
 * @param pcfg       power configuration
 * @param window     instructions to simulate
 * @param target_time_ps run time to match, in picoseconds
 * @param iters      bisection iterations (6 resolves ~12 MHz over
 *                   the default 750 MHz range)
 * @param checkpoints optional sampled-mode checkpoint set shared by
 *                   every bisection probe run (the functional
 *                   trajectory is frequency-independent, so one set
 *                   serves all probed frequencies); ignored in exact
 *                   mode
 */
GlobalDvsResult
globalDvsMatch(const workload::Program &program,
               const workload::InputSet &input,
               const sim::SimConfig &scfg,
               const power::PowerConfig &pcfg, std::uint64_t window,
               Tick target_time_ps, int iters = 6,
               std::shared_ptr<const sim::CheckpointSet> checkpoints =
                   nullptr);

} // namespace mcd::control

#endif // MCD_CONTROL_GLOBALDVS_HH
