#include "control/offline.hh"

#include "core/threshold.hh"

namespace mcd::control
{

namespace
{

/** Cuts the commit stream into fixed instruction intervals and
 *  shakes each one as its records arrive. */
class IntervalCollector : public sim::TraceSink
{
  public:
    IntervalCollector(const core::ShakerConfig &shaker_cfg,
                      std::uint64_t interval_instrs)
        : analyzer(shaker_cfg), interval(interval_instrs)
    {
    }

    void
    onInstr(const sim::InstrTiming &t) override
    {
        analyzer.add(t);
        if (analyzer.pending() >= interval)
            flush();
    }

    void
    flush()
    {
        std::size_t n = analyzer.pending();
        if (n == 0)
            return;
        OfflineAnalysis::Interval &iv = out.intervals.emplace_back();
        iv.startInstr = startInstr;
        analyzer.finish(iv.hists);
        startInstr += n;
    }

    /** Flush the trailing interval and return the analysis. */
    OfflineAnalysis
    finish()
    {
        flush();
        return std::move(out);
    }

  private:
    core::SegmentAnalyzer analyzer;
    std::uint64_t interval;
    OfflineAnalysis out;
    std::uint64_t startInstr = 0;
};

} // namespace

OfflineAnalysis
offlineHistograms(const OfflineConfig &cfg,
                  const workload::Program &program,
                  const workload::InputSet &input,
                  const sim::SimConfig &scfg,
                  const power::PowerConfig &pcfg, std::uint64_t window)
{
    IntervalCollector collector(
        core::shakerConfigFor(cfg.shaker, scfg, pcfg),
        cfg.intervalInstrs);
    // The shaker consumes every committed instruction's timing
    // record; sampled probes would leave holes in the dependence
    // DAG, so the analysis run is always exact.
    sim::SimConfig acfg = scfg;
    acfg.sampling = sim::SamplingConfig{};
    sim::Processor analysis(acfg, pcfg, program, input);
    analysis.setTraceSink(&collector);
    sim::RunResult run = analysis.run(window);
    OfflineAnalysis out = collector.finish();
    out.run = run;
    return out;
}

std::vector<sim::SchedulePoint>
offlineSchedule(const OfflineConfig &cfg, const OfflineAnalysis &analysis)
{
    core::ThresholdConfig tcfg =
        core::thresholdConfigFor(cfg.slowdownPct, cfg.shaker);
    std::vector<sim::SchedulePoint> sched;
    sched.reserve(analysis.intervals.size());
    for (const OfflineAnalysis::Interval &iv : analysis.intervals) {
        sim::SchedulePoint pt;
        // Apply each interval's setting slightly early: the oracle
        // knows the future and hides the ramp.
        pt.atInstr = iv.startInstr > cfg.leadInstrs
                         ? iv.startInstr - cfg.leadInstrs
                         : 0;
        pt.freqs = core::chooseFrequencies(iv.hists, tcfg);
        sched.push_back(pt);
    }
    return sched;
}

std::vector<sim::SchedulePoint>
offlineAnalyze(const OfflineConfig &cfg,
               const workload::Program &program,
               const workload::InputSet &input,
               const sim::SimConfig &scfg,
               const power::PowerConfig &pcfg, std::uint64_t window)
{
    return offlineSchedule(cfg, offlineHistograms(cfg, program, input,
                                                  scfg, pcfg, window));
}

sim::RunResult
offlineRun(const OfflineConfig &cfg, const workload::Program &program,
           const workload::InputSet &input, const sim::SimConfig &scfg,
           const power::PowerConfig &pcfg, std::uint64_t window,
           std::shared_ptr<const sim::CheckpointSet> checkpoints)
{
    return offlineRun(cfg,
                      offlineHistograms(cfg, program, input, scfg, pcfg,
                                        window),
                      program, input, scfg, pcfg, window,
                      std::move(checkpoints));
}

sim::RunResult
offlineRun(const OfflineConfig &cfg, const OfflineAnalysis &analysis,
           const workload::Program &program,
           const workload::InputSet &input, const sim::SimConfig &scfg,
           const power::PowerConfig &pcfg, std::uint64_t window,
           std::shared_ptr<const sim::CheckpointSet> checkpoints)
{
    sim::Processor proc(scfg, pcfg, program, input);
    proc.setSchedule(offlineSchedule(cfg, analysis));
    proc.setCheckpoints(std::move(checkpoints));
    return proc.run(window);
}

} // namespace mcd::control
