#include "sim/exec_domain.hh"

#include <algorithm>

#include "sim/processor.hh"
#include "util/logging.hh"

namespace mcd::sim
{

using workload::InstrClass;

void
ExecDomain::tick(Tick now)
{
    auto &queue = p.iq[domainIndex(dom)];
    p.occSum[domainIndex(dom)] += static_cast<double>(queue.size());
    ++p.occSamples[domainIndex(dom)];

    int issued = 0;
    for (auto it = queue.begin();
         it != queue.end() && issued < width;) {
        if (!waiting(*it, now) && tryIssue(now, *it)) {
            it = queue.erase(it);
            ++issued;
        } else {
            ++it;
        }
    }
}

bool
ExecDomain::waiting(const IqEntry &e, Tick now) const
{
    switch (e.wait) {
      case IqEntry::Wait::Until:
        return now < e.until;
      case IqEntry::Wait::Producer: {
        const Processor::Uop *u = p.findUop(e.on);
        return u && !u->completed;
      }
      case IqEntry::Wait::Edge:
        return p.clock(dom).edges() < e.until &&
               p.findUop(e.on) != nullptr;
      case IqEntry::Wait::None:
        break;
    }
    return false;
}

Tick
ExecDomain::idleHorizon() const
{
    // Only a front-end dispatch can put work in the issue queue, and
    // dispatch wakes this domain explicitly.
    return p.iq[domainIndex(dom)].empty() ? Kernel::NEVER : 0;
}

void
ExecDomain::skipped(std::uint64_t n)
{
    p.occSamples[domainIndex(dom)] += n;
}

bool
ExecDomain::operandReady(std::uint64_t producer_seq, Tick now,
                         IqEntry &e) const
{
    if (producer_seq == 0)
        return true;
    const Processor::Uop *pr = p.findUop(producer_seq);
    // A producer that left the ROB has retired, and commit waited for
    // its value to reach the front end (now >= ready + margin); edge
    // times never decrease, so the value is ready here too.
    if (!pr)
        return true;
    if (!pr->completed) {
        e.wait = IqEntry::Wait::Producer;
        e.on = producer_seq;
        return false;
    }
    // Same-domain, non-memory producers: compare edge counts so that
    // back-to-back dependent issue is exact under jitter.
    if (pr->domain == dom && !pr->isLoad) {
        if (p.clock(dom).edges() >= pr->execDoneEdge)
            return true;
        e.wait = IqEntry::Wait::Edge;
        e.on = producer_seq;
        e.until = pr->execDoneEdge;
        return false;
    }
    Tick t = pr->isLoad ? pr->memDone : pr->execDone;
    if (now >= t + p.syncMargin(pr->domain, dom))
        return true;
    // Once the producer retires, commit has already waited past this
    // bound (the front-end margin is never below this minimum).
    e.wait = IqEntry::Wait::Until;
    e.until = t + p.minSyncMargin(pr->domain, dom);
    return false;
}

bool
ExecDomain::tryIssue(Tick now, IqEntry &e)
{
    e.wait = IqEntry::Wait::None;
    Processor::Uop *up = p.findUop(e.seq);
    if (!up)
        panic("IQ entry %llu missing from ROB",
              static_cast<unsigned long long>(e.seq));
    Processor::Uop &u = *up;

    // Dispatch-to-issue-queue synchronization (front end -> domain).
    if (now < u.dispatchTime + p.syncMargin(Domain::FrontEnd, dom)) {
        e.wait = IqEntry::Wait::Until;
        e.until = u.dispatchTime + p.minSyncMargin(Domain::FrontEnd, dom);
        return false;
    }
    if (!operandReady(u.depSeq1, now, e) ||
        !operandReady(u.depSeq2, now, e))
        return false;

    // Loads: memory ordering against older in-flight stores to the
    // same address (conservative exact-address disambiguation with
    // store-to-load forwarding).
    bool forwarded = false;
    Tick forward_ready = 0;
    if (u.isLoad) {
        for (auto it = p.storeSeqs.rbegin(); it != p.storeSeqs.rend();
             ++it) {
            if (*it >= u.seq)
                continue;
            const Processor::Uop *s = p.findUop(*it);
            if (!s)
                break;  // older stores retired: no conflict possible
            if (s->di.addr != u.di.addr)
                continue;
            if (!s->completed) {
                // Data not ready yet.
                e.wait = IqEntry::Wait::Producer;
                e.on = *it;
                return false;
            }
            forwarded = true;
            forward_ready = s->execDone;
            break;
        }
    }

    // Functional unit allocation, in domain edge counts (exact under
    // jitter).
    Tick period = p.clock(dom).period();
    std::uint64_t cur_edge = p.clock(dom).edges();
    auto take_pipelined = [&](std::vector<Tick> &units) -> bool {
        for (auto &busy : units) {
            if (busy <= cur_edge) {
                busy = cur_edge + 1;
                return true;
            }
        }
        return false;
    };
    auto take_blocking = [&](std::vector<Tick> &units,
                             std::uint64_t lat_edges) -> bool {
        for (auto &busy : units) {
            if (busy <= cur_edge) {
                busy = cur_edge + lat_edges;
                return true;
            }
        }
        return false;
    };

    Volt v = p.clock(dom).voltage();
    int lat = 0;
    switch (u.di.cls) {
      case InstrClass::IntAlu:
      case InstrClass::Branch:
        if (!take_pipelined(p.intAluBusy))
            return false;
        lat = p.cfg.latIntAlu;
        p.power_.access(power::Unit::IntAlu, v);
        break;
      case InstrClass::IntMul:
        if (!take_pipelined(p.intMulBusy))
            return false;
        lat = p.cfg.latIntMul;
        p.power_.access(power::Unit::IntMul, v);
        break;
      case InstrClass::IntDiv:
        lat = p.cfg.latIntDiv;
        if (!take_blocking(p.intMulBusy,
                           static_cast<std::uint64_t>(lat)))
            return false;
        p.power_.access(power::Unit::IntMul, v);
        break;
      case InstrClass::FpAdd:
        if (!take_pipelined(p.fpAluBusy))
            return false;
        lat = p.cfg.latFpAdd;
        p.power_.access(power::Unit::FpAlu, v);
        break;
      case InstrClass::FpMul:
        if (!take_pipelined(p.fpMulBusy))
            return false;
        lat = p.cfg.latFpMul;
        p.power_.access(power::Unit::FpMul, v);
        break;
      case InstrClass::FpDiv:
      case InstrClass::FpSqrt:
        lat = u.di.cls == InstrClass::FpDiv ? p.cfg.latFpDiv
                                            : p.cfg.latFpSqrt;
        if (!take_blocking(p.fpMulBusy,
                           static_cast<std::uint64_t>(lat)))
            return false;
        p.power_.access(power::Unit::FpMul, v);
        break;
      case InstrClass::Load:
      case InstrClass::Store:
        if (!take_pipelined(p.memPortBusy))
            return false;
        lat = 1;
        p.power_.access(power::Unit::Lsq, v);
        break;
      default:
        return false;
    }

    // Register file reads for the source operands.
    int n_src = (u.depSeq1 ? 1 : 0) + (u.depSeq2 ? 1 : 0);
    if (n_src > 0) {
        power::Unit rf = dom == Domain::FloatingPoint
                             ? power::Unit::RegFileFp
                             : power::Unit::RegFileInt;
        p.power_.accessTo(rf, dom, v, n_src);
    }

    u.issueTime = now;
    u.execDone = now + static_cast<Tick>(lat) * period;
    u.execDoneEdge = cur_edge + static_cast<std::uint64_t>(lat);
    u.completed = true;

    if (u.isLoad) {
        u.memStart = u.execDone;
        Volt mem_v = p.clock(Domain::Memory).voltage();
        if (forwarded) {
            Tick data = std::max(u.memStart, forward_ready);
            u.memDone =
                data + static_cast<Tick>(p.cfg.l1Latency) * period;
        } else {
            p.power_.access(power::Unit::Dcache, mem_v);
            ++p.l1dAccessCount;
            Tick t = u.memStart +
                     static_cast<Tick>(p.cfg.l1Latency) * period;
            if (!p.warm.l1d.access(u.di.addr)) {
                ++p.l1dMissCount;
                p.power_.access(power::Unit::L2, mem_v);
                t = p.l2PortGrant(t) +
                    static_cast<Tick>(p.cfg.l2Latency) * period;
                if (!p.warm.l2.access(u.di.addr)) {
                    u.l2Miss = true;
                    ++p.l2MissCount;
                    p.power_.access(power::Unit::Dram,
                                    p.power_.config().vMax);
                    t = p.memAccess(t) +
                        p.syncMargin(Domain::External, Domain::Memory);
                }
            }
            u.memDone = t;
        }
    }
    return true;
}

} // namespace mcd::sim
