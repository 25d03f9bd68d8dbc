#include "sim/processor.hh"

#include "util/logging.hh"

namespace mcd::sim
{

Processor::Processor(const SimConfig &c, const power::PowerConfig &pc,
                     const workload::Program &prog,
                     const workload::InputSet &in)
    : cfg(c), program(prog), input(in),
      externalPeriod(periodPs(c.maxMhz)),
      power_(pc),
      warm(c, prog, in),
      memory(c.memLatencyPs, c.memBusPs),
      kernel(cfg, power_),
      frontend(*this),
      execDomains{{ExecDomain(*this, Domain::Integer, c.intIssueWidth),
                   ExecDomain(*this, Domain::FloatingPoint,
                              c.fpIssueWidth),
                   ExecDomain(*this, Domain::Memory, c.memIssueWidth)}},
      rob(static_cast<std::size_t>(c.robSize)),
      fetchQueue(static_cast<std::size_t>(c.fetchQueueSize)),
      intRegsFree(c.intRegs),
      fpRegsFree(c.fpRegs),
      intAluBusy(static_cast<size_t>(c.intAlus), 0),
      intMulBusy(static_cast<size_t>(c.intMulDiv), 0),
      fpAluBusy(static_cast<size_t>(c.fpAlus), 0),
      fpMulBusy(static_cast<size_t>(c.fpMulDiv), 0),
      memPortBusy(static_cast<size_t>(c.memPorts), 0)
{
    kernel.attach(Domain::FrontEnd, &frontend);
    kernel.attach(Domain::Integer, &execDomains[0]);
    kernel.attach(Domain::FloatingPoint, &execDomains[1]);
    kernel.attach(Domain::Memory, &execDomains[2]);
    producerRing.assign(256, 0);
}

void
Processor::setIntervalHook(IntervalHook *h, std::uint64_t instrs)
{
    intervalHook = h;
    intervalInstrs = instrs;
}

void
Processor::setSchedule(std::vector<SchedulePoint> sched)
{
    schedule = std::move(sched);
    schedulePos = 0;
}

void
Processor::applyScheduleUpTo(std::uint64_t v)
{
    while (schedulePos < schedule.size() &&
           schedule[schedulePos].atInstr <= v)
        reconfigure(schedule[schedulePos++].freqs);
}

void
Processor::reconfigure(const FreqSet &freqs)
{
    for (Domain d : scaledDomains())
        kernel.setTarget(d, freqs[domainIndex(d)]);
    ++reconfigCount;
}

void
Processor::setInitialFreqs(const FreqSet &freqs)
{
    for (Domain d : scaledDomains())
        kernel.jumpTo(d, freqs[domainIndex(d)]);
}

void
Processor::setTarget(Domain d, Mhz f)
{
    kernel.setTarget(d, f);
}

Mhz
Processor::freq(Domain d) const
{
    return clock(d).freq();
}

Mhz
Processor::targetFreq(Domain d) const
{
    return clock(d).target();
}

RunResult
Processor::run(std::uint64_t max_instrs)
{
    if (cfg.sampling.sampled())
        return runSampled(max_instrs);
    beginRun(max_instrs);
    while (!runDone())
        stepEdge();
    return finishRun();
}

void
Processor::beginRun(std::uint64_t max_instrs)
{
    maxInstrs_ = max_instrs;
    watchdogLastCheck = 0;
    watchdogLastInstrs = 0;
    kernel.prologue();
}

void
Processor::stepEdge()
{
    Tick now = kernel.stepOne();
    if (now - watchdogLastCheck > cfg.watchdogPs) {
        if (committedInstrs == watchdogLastInstrs)
            panic("no commit progress for %llu ps at t=%llu "
                  "(rob=%zu fq=%zu committed=%llu)",
                  static_cast<unsigned long long>(cfg.watchdogPs),
                  static_cast<unsigned long long>(now),
                  rob.size(), fetchQueue.size(),
                  static_cast<unsigned long long>(committedInstrs));
        watchdogLastCheck = now;
        watchdogLastInstrs = committedInstrs;
    }
}

RunResult
Processor::finishRun()
{
    kernel.finish();
    Tick end = kernel.now();

    RunResult r;
    r.timePs = lastCommitTime ? lastCommitTime : end;
    r.chipEnergyNj = power_.chipEnergyNj();
    r.dramEnergyNj = power_.dramEnergyNj();
    r.instrs = committedInstrs;
    r.feCycles = feTickCount;
    r.ipc = feTickCount ? static_cast<double>(committedInstrs) /
                              static_cast<double>(feTickCount)
                        : 0.0;
    r.branches = branches;
    r.mispredicts = mispredicts;
    r.l1dAccesses = l1dAccessCount;
    r.l1dMisses = l1dMissCount;
    r.l2Misses = l2MissCount;
    r.icacheMisses = icacheMissCount;
    r.dramAccesses = dramAccessCount;
    r.reconfigs = reconfigCount;
    r.overheadCycles = overheadCycleCount;
    r.ffEdges = kernel.fastForwardedEdges();
    for (Domain d : scaledDomains()) {
        r.avgFreq[domainIndex(d)] = clock(d).averageFreq();
        r.domainEnergyNj[domainIndex(d)] = power_.domainEnergyNj(d);
    }
    r.domainEnergyNj[domainIndex(Domain::External)] =
        power_.dramEnergyNj();
    return r;
}

} // namespace mcd::sim
