#include "power/power.hh"

namespace mcd::power
{

Domain
unitDomain(Unit u)
{
    switch (u) {
      case Unit::Icache:
      case Unit::Bpred:
      case Unit::Rename:
      case Unit::Rob:
        return Domain::FrontEnd;
      case Unit::IssueQueue:  // charged per owning queue via access site
      case Unit::RegFileInt:
      case Unit::IntAlu:
      case Unit::IntMul:
        return Domain::Integer;
      case Unit::RegFileFp:
      case Unit::FpAlu:
      case Unit::FpMul:
        return Domain::FloatingPoint;
      case Unit::Lsq:
      case Unit::Dcache:
      case Unit::L2:
        return Domain::Memory;
      case Unit::Dram:
        return Domain::External;
      default:
        return Domain::FrontEnd;
    }
}

PowerConfig::PowerConfig()
{
    // pJ per access at Vmax; relative magnitudes follow Wattch's
    // Alpha-like model (caches and FP units dominate per access,
    // clock trees dominate per cycle).
    unitPj.fill(0.0);
    unitPj[static_cast<int>(Unit::Icache)] = 380.0;
    unitPj[static_cast<int>(Unit::Bpred)] = 120.0;
    unitPj[static_cast<int>(Unit::Rename)] = 100.0;
    unitPj[static_cast<int>(Unit::Rob)] = 80.0;
    unitPj[static_cast<int>(Unit::IssueQueue)] = 90.0;
    unitPj[static_cast<int>(Unit::RegFileInt)] = 70.0;
    unitPj[static_cast<int>(Unit::RegFileFp)] = 90.0;
    unitPj[static_cast<int>(Unit::IntAlu)] = 160.0;
    unitPj[static_cast<int>(Unit::IntMul)] = 350.0;
    unitPj[static_cast<int>(Unit::FpAlu)] = 420.0;
    unitPj[static_cast<int>(Unit::FpMul)] = 520.0;
    unitPj[static_cast<int>(Unit::Lsq)] = 110.0;
    unitPj[static_cast<int>(Unit::Dcache)] = 460.0;
    unitPj[static_cast<int>(Unit::L2)] = 1900.0;
    unitPj[static_cast<int>(Unit::Dram)] = 4200.0;

    clockPj = {230.0, 190.0, 160.0, 210.0};
    leakW = {0.05, 0.04, 0.04, 0.05};
    domainWeight = {0.30, 0.25, 0.15, 0.30};
}

PowerModel::PowerModel(const PowerConfig &c)
    : cfg(c)
{
}

double
PowerModel::scaleV2(Volt v) const
{
    double r = v / cfg.vMax;
    return r * r;
}

void
PowerModel::access(Unit u, Volt v, int n)
{
    accessTo(u, unitDomain(u), v, n);
}

void
PowerModel::accessTo(Unit u, Domain d, Volt v, int n)
{
    double nj = cfg.unitPj[static_cast<int>(u)] * scaleV2(v) * n / 1000.0;
    if (d == Domain::External)
        dramNj += nj;
    else
        domainNj[domainIndex(d)] += nj;
}

void
PowerModel::clockCycle(Domain d, Volt v)
{
    if (d == Domain::External)
        return;
    domainNj[domainIndex(d)] +=
        cfg.clockPj[domainIndex(d)] * scaleV2(v) / 1000.0;
}

void
PowerModel::clockCycles(Domain d, Volt v, std::uint64_t n)
{
    if (d == Domain::External || n == 0)
        return;
    domainNj[domainIndex(d)] += cfg.clockPj[domainIndex(d)] *
                                scaleV2(v) / 1000.0 *
                                static_cast<double>(n);
}

void
PowerModel::leakage(Domain d, Volt v, Tick dt_ps)
{
    if (d == Domain::External)
        return;
    // W * ps = 1e-12 J = 1e-3 nJ
    domainNj[domainIndex(d)] +=
        cfg.leakW[domainIndex(d)] * (v / cfg.vMax) *
        static_cast<double>(dt_ps) * 1e-3;
}

void
PowerModel::extra(Domain d, double pj)
{
    if (d == Domain::External)
        dramNj += pj / 1000.0;
    else
        domainNj[domainIndex(d)] += pj / 1000.0;
}

double
PowerModel::chipEnergyNj() const
{
    double sum = 0.0;
    for (double e : domainNj)
        sum += e;
    return sum;
}

double
PowerModel::domainEnergyNj(Domain d) const
{
    if (d == Domain::External)
        return dramNj;
    return domainNj[domainIndex(d)];
}

} // namespace mcd::power
