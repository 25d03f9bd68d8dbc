#include "sim/frontend.hh"

#include <algorithm>

#include "sim/processor.hh"
#include "util/logging.hh"

namespace mcd::sim
{

using workload::InstrClass;
using workload::StreamItem;

void
Frontend::tick(Tick now)
{
    ++p.feTickCount;
    p.occSum[domainIndex(Domain::FrontEnd)] +=
        static_cast<double>(p.fetchQueue.size());
    p.robOccSum += static_cast<double>(p.rob.size());
    ++p.occSamples[domainIndex(Domain::FrontEnd)];
    commit(now);
    dispatch(now);
    fetch(now);
}

Tick
Frontend::idleHorizon() const
{
    // Anything in flight keeps the front end busy: commit drains the
    // ROB and dispatch drains the fetch queue on its edges.
    if (!p.rob.empty() || !p.fetchQueue.empty())
        return 0;
    // A drained window with fetch exhausted means the run is about
    // to stop; stay busy and let the stop condition fire.
    if (p.warm.streamEnded || p.fetchedInstrs >= p.maxInstrs_)
        return 0;
    // Fetch is live: every blocking condition is a known time once
    // the window has drained (a retired mispredict always has its
    // redirect time computed at commit).
    Tick h = std::max(p.fetchStallUntil, p.icacheBlockedUntil);
    if (p.blockedBranchSeq != 0) {
        if (p.redirectAt == 0)
            return 0;  // defensive: unknown redirect, stay busy
        h = std::max(h, p.redirectAt);
    }
    return h;
}

void
Frontend::skipped(std::uint64_t n)
{
    p.feTickCount += n;
    p.occSamples[domainIndex(Domain::FrontEnd)] += n;
}

void
Frontend::applyMarker(const MarkerAction &a, Tick now)
{
    if (a.stallCycles > 0) {
        Tick stall = static_cast<Tick>(a.stallCycles) *
                     p.clock(Domain::FrontEnd).period();
        Tick until = now + stall;
        if (until > p.fetchStallUntil)
            p.fetchStallUntil = until;
        p.overheadCycleCount +=
            static_cast<std::uint64_t>(a.stallCycles);
    }
    if (a.energyPj > 0.0) {
        Volt v = p.clock(Domain::FrontEnd).voltage();
        double r = v / p.power_.config().vMax;
        p.power_.extra(Domain::FrontEnd, a.energyPj * r * r);
    }
    if (a.reconfig)
        p.reconfigure(a.freqs);
}

bool
Frontend::streamFetchBlocked(Tick now)
{
    if (now < p.fetchStallUntil || now < p.icacheBlockedUntil)
        return true;
    if (p.blockedBranchSeq != 0) {
        if (p.redirectAt == 0) {
            const Processor::Uop *u = p.findUop(p.blockedBranchSeq);
            if (u && u->completed) {
                p.redirectAt =
                    u->execDone +
                    p.syncMargin(u->domain, Domain::FrontEnd) +
                    static_cast<Tick>(p.cfg.mispredictPenalty) *
                        p.clock(Domain::FrontEnd).period();
            }
        }
        if (p.redirectAt != 0 && now >= p.redirectAt) {
            p.blockedBranchSeq = 0;
            p.redirectAt = 0;
            return false;
        }
        return true;
    }
    return false;
}

void
Frontend::fetch(Tick now)
{
    if (p.warm.streamEnded || p.fetchedInstrs >= p.maxInstrs_)
        return;
    if (streamFetchBlocked(now))
        return;

    Volt fe_v = p.clock(Domain::FrontEnd).voltage();
    int slots = p.cfg.fetchWidth;
    while (slots > 0 && p.fetchedInstrs < p.maxInstrs_ &&
           p.fetchQueue.size() <
               static_cast<std::size_t>(p.cfg.fetchQueueSize)) {
        StreamItem item;
        if (p.haveHoldover) {
            item = p.holdover;
            p.haveHoldover = false;
        } else if (!p.warm.stream.next(item)) {
            p.warm.streamEnded = true;
            break;
        }

        if (item.kind == StreamItem::Kind::Marker) {
            MarkerAction action;
            if (p.markerHandler)
                action = p.markerHandler->onMarker(item.marker);
            applyMarker(action, now);
            if (action.stallCycles > 0)
                break;  // instrumentation ends this fetch group
            continue;   // markers consume no fetch slot
        }

        const workload::DynInstr &di = item.instr;
        std::uint64_t line = di.pc / p.cfg.lineSize;
        if (line != p.warm.lastLine) {
            p.power_.access(power::Unit::Icache, fe_v);
            if (!p.warm.l1i.access(di.pc)) {
                ++p.icacheMissCount;
                Tick lat =
                    p.syncMargin(Domain::FrontEnd, Domain::Memory);
                Volt mem_v = p.clock(Domain::Memory).voltage();
                p.power_.access(power::Unit::L2, mem_v);
                lat = (p.l2PortGrant(now + lat) - now) +
                      static_cast<Tick>(p.cfg.l2Latency) *
                          p.clock(Domain::Memory).period();
                if (!p.warm.l2.access(di.pc)) {
                    p.power_.access(power::Unit::Dram,
                                    p.power_.config().vMax);
                    Tick t_mem = p.memAccess(now + lat);
                    lat = (t_mem - now);
                }
                lat += p.syncMargin(Domain::Memory, Domain::FrontEnd);
                p.icacheBlockedUntil = now + lat;
                p.warm.lastLine = line;
                p.holdover = item;
                p.haveHoldover = true;
                break;
            }
            p.warm.lastLine = line;
        }

        Processor::Uop u;
        u.di = di;
        u.seq = p.nextSeq++;
        u.node = p.markerHandler ? p.markerHandler->currentNode() : 0;
        u.domain = workload::execDomain(di.cls);
        u.isLoad = di.cls == InstrClass::Load;
        u.isStore = di.cls == InstrClass::Store;
        u.fetchTime = now;

        bool stop_group = false;
        if (di.cls == InstrClass::Branch) {
            p.power_.access(power::Unit::Bpred, fe_v);
            BranchPrediction pr = p.warm.bpred.predict(di.pc);
            bool mis = (pr.taken != di.taken) ||
                       (di.taken &&
                        (!pr.btbHit || pr.target != di.target));
            u.mispredicted = mis;
            if (mis) {
                p.blockedBranchSeq = u.seq;
                p.redirectAt = 0;
                stop_group = true;
            } else if (di.taken) {
                stop_group = true;  // taken branch ends fetch group
            }
        }

        Processor::FetchEntry fe;
        fe.uop = u;
        fe.readyFeTick = p.feTickCount +
                         static_cast<std::uint64_t>(p.cfg.decodeDepth);
        p.fetchQueue.push_back(fe);
        ++p.fetchedInstrs;
        --slots;
        if (stop_group)
            break;
    }
}

void
Frontend::dispatch(Tick now)
{
    Volt fe_v = p.clock(Domain::FrontEnd).voltage();
    int n = 0;
    while (n < p.cfg.dispatchWidth && !p.fetchQueue.empty()) {
        Processor::FetchEntry &fe = p.fetchQueue.front();
        if (fe.readyFeTick > p.feTickCount)
            break;
        Processor::Uop &u = fe.uop;
        if (p.rob.size() >= static_cast<std::size_t>(p.cfg.robSize))
            break;
        std::size_t di = domainIndex(u.domain);
        std::size_t cap = 0;
        switch (u.domain) {
          case Domain::Integer:
            cap = static_cast<std::size_t>(p.cfg.intIqSize);
            break;
          case Domain::FloatingPoint:
            cap = static_cast<std::size_t>(p.cfg.fpIqSize);
            break;
          case Domain::Memory:
            cap = static_cast<std::size_t>(p.cfg.lsqSize);
            break;
          default:
            cap = 0;
            break;
        }
        if (p.iq[di].size() >= cap)
            break;
        bool needs_reg = workload::producesValue(u.di.cls);
        bool fp_reg = u.domain == Domain::FloatingPoint;
        if (needs_reg) {
            if (fp_reg && p.fpRegsFree == 0)
                break;
            if (!fp_reg && p.intRegsFree == 0)
                break;
        }

        // Resolve positional dependences against the producer ring
        // (program order).
        auto resolve = [&](std::uint8_t dist) -> std::uint64_t {
            if (dist == 0)
                return 0;
            std::uint64_t produced =
                p.producerCount >= p.producerRing.size()
                    ? p.producerRing.size()
                    : p.producerCount;
            if (dist > produced)
                return 0;
            std::size_t idx =
                (p.producerHead + p.producerRing.size() - dist) %
                p.producerRing.size();
            return p.producerRing[idx];
        };
        u.depSeq1 = resolve(u.di.dep1);
        u.depSeq2 = resolve(u.di.dep2);

        if (needs_reg) {
            if (fp_reg)
                --p.fpRegsFree;
            else
                --p.intRegsFree;
            p.producerRing[p.producerHead] = u.seq;
            p.producerHead =
                (p.producerHead + 1) % p.producerRing.size();
            ++p.producerCount;
        }

        u.dispatchTime = now;
        if (u.isStore)
            p.storeSeqs.push_back(u.seq);
        p.rob.push_back(u);
        p.iq[di].push_back({u.seq});
        // The consuming domain may be parked on an empty queue; it
        // has work now.  Waking replays its idle edges up to `now`,
        // so an edge exactly at `now` still issues this cycle.
        p.kernel.wake(u.domain);

        p.power_.access(power::Unit::Rename, fe_v);
        p.power_.access(power::Unit::Rob, fe_v);
        p.power_.accessTo(power::Unit::IssueQueue, u.domain,
                          p.clock(u.domain).voltage());

        p.fetchQueue.pop_front();
        ++n;
    }
}

void
Frontend::commit(Tick now)
{
    Volt fe_v = p.clock(Domain::FrontEnd).voltage();
    int n = 0;
    while (n < p.cfg.retireWidth && !p.rob.empty()) {
        Processor::Uop &u = p.rob.front();
        if (!u.completed)
            break;
        Tick done = u.isLoad ? u.memDone : u.execDone;
        if (now < done + p.syncMargin(u.domain, Domain::FrontEnd))
            break;

        // A mispredicted branch may retire before the fetch stage has
        // computed its redirect time; do it here so the information
        // survives the ROB entry.
        if (u.seq == p.blockedBranchSeq && p.redirectAt == 0) {
            p.redirectAt =
                u.execDone +
                p.syncMargin(u.domain, Domain::FrontEnd) +
                static_cast<Tick>(p.cfg.mispredictPenalty) *
                    p.clock(Domain::FrontEnd).period();
        }

        if (u.di.cls == InstrClass::Branch) {
            ++p.branches;
            if (u.mispredicted)
                ++p.mispredicts;
            p.warm.bpred.update(u.di.pc, u.di.taken, u.di.target);
        }

        if (u.isStore) {
            // Write the cache at commit; timing is not blocking.
            Volt mem_v = p.clock(Domain::Memory).voltage();
            p.power_.access(power::Unit::Dcache, mem_v);
            ++p.l1dAccessCount;
            if (!p.warm.l1d.access(u.di.addr)) {
                ++p.l1dMissCount;
                p.power_.access(power::Unit::L2, mem_v);
                Tick l2_start = p.l2PortGrant(now);
                if (!p.warm.l2.access(u.di.addr)) {
                    ++p.l2MissCount;
                    p.power_.access(power::Unit::Dram,
                                    p.power_.config().vMax);
                    p.memAccess(l2_start);
                }
            }
            if (!p.storeSeqs.empty() && p.storeSeqs.front() == u.seq)
                p.storeSeqs.pop_front();
        }

        p.power_.access(power::Unit::Rob, fe_v);

        if (workload::producesValue(u.di.cls)) {
            if (u.domain == Domain::FloatingPoint)
                ++p.fpRegsFree;
            else
                ++p.intRegsFree;
        }

        if (p.traceSink) {
            InstrTiming t;
            t.seq = u.seq;
            t.node = u.node;
            t.cls = u.di.cls;
            t.domain = u.domain;
            t.dep1 = u.depSeq1;
            t.dep2 = u.depSeq2;
            t.fetch = u.fetchTime;
            t.dispatch = u.dispatchTime;
            t.issue = u.issueTime;
            t.execDone = u.execDone;
            t.memStart = u.memStart;
            t.memDone = u.memDone;
            t.commit = now;
            t.l2Miss = u.l2Miss;
            t.mispredict = u.mispredicted;
            p.traceSink->onInstr(t);
        }

        p.rob.pop_front();
        ++p.committedInstrs;
        p.lastCommitTime = now;
        ++n;

        // Schedule points and interval boundaries are positioned by
        // *virtual* instruction index — committed plus functionally
        // skipped (sampled mode; always equal to committed in exact
        // mode, where skippedInstrs stays 0).
        p.applyScheduleUpTo(p.committedInstrs + p.skippedInstrs);

        if (p.intervalHook && p.intervalInstrs > 0 &&
            p.committedInstrs + p.skippedInstrs -
                    p.intervalStartInstrs >=
                p.intervalInstrs) {
            // Occupancy denominators must include parked domains'
            // idle edges up to this commit.
            p.kernel.syncStats();
            IntervalStats s;
            s.instrs = p.committedInstrs + p.skippedInstrs -
                       p.intervalStartInstrs;
            // IPC is measured over the *detailed* commits of the
            // interval (a sampled estimate of the true IPC); skipped
            // instructions advance no front-end cycles.
            std::uint64_t det_instrs =
                p.committedInstrs - p.intervalStartDetailedInstrs;
            s.timePs = now - p.intervalStartTime;
            std::uint64_t fe_cyc =
                p.feTickCount - p.intervalStartFeCycles;
            s.ipc = fe_cyc ? static_cast<double>(det_instrs) /
                                 static_cast<double>(fe_cyc)
                           : 0.0;
            for (Domain d : scaledDomains()) {
                std::uint64_t samples = p.occSamples[domainIndex(d)];
                s.queueOcc[domainIndex(d)] =
                    samples ? p.occSum[domainIndex(d)] /
                                  static_cast<double>(samples)
                            : 0.0;
            }
            std::uint64_t fe_samples =
                p.occSamples[domainIndex(Domain::FrontEnd)];
            s.robOcc = fe_samples ? p.robOccSum /
                                        static_cast<double>(fe_samples)
                                  : 0.0;
            p.intervalHook->onInterval(s, p);
            p.occSum.fill(0.0);
            p.occSamples.fill(0);
            p.robOccSum = 0.0;
            p.intervalStartInstrs =
                p.committedInstrs + p.skippedInstrs;
            p.intervalStartDetailedInstrs = p.committedInstrs;
            p.intervalStartTime = now;
            p.intervalStartFeCycles = p.feTickCount;
        }
    }
}

} // namespace mcd::sim
