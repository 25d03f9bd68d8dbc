#include "control/globaldvs.hh"

namespace mcd::control
{

GlobalDvsResult
globalDvsMatch(const workload::Program &program,
               const workload::InputSet &input,
               const sim::SimConfig &scfg_in,
               const power::PowerConfig &pcfg, std::uint64_t window,
               Tick target_time_ps, int iters,
               std::shared_ptr<const sim::CheckpointSet> checkpoints,
               std::optional<Tick> full_speed_time_ps)
{
    // Global DVS runs on the same MCD substrate with all domains
    // locked to one frequency: the comparison against per-domain
    // scaling then isolates control granularity.  (The paper used a
    // single-clock chip; with its ~1.3% MCD penalty the two are
    // equivalent, but our substrate's larger synchronization penalty
    // would otherwise hand "global" an unearned speed dividend —
    // see docs/ARCHITECTURE.md, "Synchronization window".)
    sim::SimConfig scfg = scfg_in;

    auto run_at = [&](Mhz f) {
        sim::Processor proc(scfg, pcfg, program, input);
        proc.setInitialFreqs({f, f, f, f});
        proc.setCheckpoints(checkpoints);
        return proc.run(window);
    };

    Mhz lo = scfg.minMhz;
    Mhz hi = scfg.maxMhz;
    GlobalDvsResult best;
    best.freq = hi;
    if (!full_speed_time_ps) {
        best.run = run_at(hi);
        full_speed_time_ps = best.run.timePs;
    }
    if (*full_speed_time_ps >= target_time_ps)
        return best;  // even full speed is no faster than the target

    for (int i = 0; i < iters; ++i) {
        Mhz mid = 0.5 * (lo + hi);
        sim::RunResult r = run_at(mid);
        if (r.timePs <= target_time_ps) {
            // Fast enough: remember and try lower.
            best.freq = mid;
            best.run = r;
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return best;
}

} // namespace mcd::control
