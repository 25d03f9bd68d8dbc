#include "control/offline.hh"

namespace mcd::control
{

namespace
{

/** Slices the trace into fixed instruction intervals. */
class IntervalCollector : public sim::TraceSink
{
  public:
    IntervalCollector(const core::ShakerConfig &shaker_cfg,
                      const core::ThresholdConfig &threshold_cfg,
                      std::uint64_t interval_instrs)
        : analyzer(shaker_cfg), tcfg(threshold_cfg),
          interval(interval_instrs)
    {
    }

    void
    onInstr(const sim::InstrTiming &t) override
    {
        segment.push_back(t);
        if (segment.size() >= interval)
            flush();
    }

    void
    flush()
    {
        if (segment.empty())
            return;
        core::NodeHistograms h;
        analyzer.analyze(segment, h);
        sim::SchedulePoint pt;
        pt.atInstr = startInstr;
        pt.freqs = core::chooseFrequencies(h, tcfg);
        points.push_back(pt);
        startInstr += segment.size();
        segment.clear();
    }

    std::vector<sim::SchedulePoint> points;

  private:
    core::SegmentAnalyzer analyzer;
    core::ThresholdConfig tcfg;
    std::uint64_t interval;
    std::uint64_t startInstr = 0;
    std::vector<sim::InstrTiming> segment;
};

} // namespace

std::vector<sim::SchedulePoint>
offlineAnalyze(const OfflineConfig &cfg,
               const workload::Program &program,
               const workload::InputSet &input,
               const sim::SimConfig &scfg,
               const power::PowerConfig &pcfg, std::uint64_t window)
{
    core::ThresholdConfig tcfg = cfg.threshold;
    tcfg.slowdownPct = cfg.slowdownPct;

    IntervalCollector collector(
        core::shakerConfigFor(cfg.shaker, scfg, pcfg), tcfg,
        cfg.intervalInstrs);
    // The shaker consumes every committed instruction's timing
    // record; sampled probes would leave holes in the dependence
    // DAG, so the analysis run is always exact.
    sim::SimConfig acfg = scfg;
    acfg.sampling = sim::SamplingConfig{};
    sim::Processor analysis(acfg, pcfg, program, input);
    analysis.setTraceSink(&collector);
    analysis.run(window);
    collector.flush();

    // Apply each interval's setting slightly early: the oracle knows
    // the future and hides the ramp.
    std::vector<sim::SchedulePoint> sched = collector.points;
    for (auto &pt : sched)
        pt.atInstr = pt.atInstr > cfg.leadInstrs
                         ? pt.atInstr - cfg.leadInstrs
                         : 0;
    return sched;
}

sim::RunResult
offlineRun(const OfflineConfig &cfg, const workload::Program &program,
           const workload::InputSet &input, const sim::SimConfig &scfg,
           const power::PowerConfig &pcfg, std::uint64_t window,
           std::shared_ptr<const sim::CheckpointSet> checkpoints)
{
    auto sched = offlineAnalyze(cfg, program, input, scfg, pcfg,
                                window);
    sim::Processor proc(scfg, pcfg, program, input);
    proc.setSchedule(std::move(sched));
    proc.setCheckpoints(std::move(checkpoints));
    return proc.run(window);
}

} // namespace mcd::control
