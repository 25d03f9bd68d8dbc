#include "control/online.hh"

#include <algorithm>

namespace mcd::control
{

AttackDecayController::AttackDecayController(const OnlineConfig &c,
                                             const sim::SimConfig &sc)
    : cfg(c), fMin(sc.minMhz), fMax(sc.maxMhz),
      guard(c.ipcGuard * (1.0 + 0.5 * c.aggressiveness))
{
}

void
AttackDecayController::onInterval(const sim::IntervalStats &s,
                                  sim::DvfsControl &ctl)
{
    // Utilizations: issue queues for the execution domains, reorder
    // buffer for the front end (an empty ROB means the front end is
    // the bottleneck).
    std::array<double, NUM_SCALED_DOMAINS> util{};
    util[static_cast<size_t>(Domain::Integer)] =
        s.queueOcc[static_cast<size_t>(Domain::Integer)] /
        cfg.intIqSize;
    util[static_cast<size_t>(Domain::FloatingPoint)] =
        s.queueOcc[static_cast<size_t>(Domain::FloatingPoint)] /
        cfg.fpIqSize;
    util[static_cast<size_t>(Domain::Memory)] =
        s.queueOcc[static_cast<size_t>(Domain::Memory)] / cfg.lsqSize;
    util[static_cast<size_t>(Domain::FrontEnd)] =
        s.robOcc / cfg.robSize;

    double decay = cfg.decayStep * cfg.aggressiveness;

    // Performance guard: if IPC collapsed relative to the best seen
    // recently, return everything to full speed and relax the
    // reference.
    if (guard.collapsed(s.ipc)) {
        for (Domain d : scaledDomains())
            ctl.setTarget(d, fMax);
        ++nRecoveries;
        guard.relax();
        prevUtil = util;
        first = false;
        return;
    }

    for (Domain dom : scaledDomains()) {
        double u = util[domainIndex(dom)];
        double pu = prevUtil[domainIndex(dom)];
        Mhz f = ctl.targetFreq(dom);

        if (dom == Domain::FrontEnd) {
            // Front end: a drained ROB means fetch/dispatch cannot
            // keep up -> attack up (on level or on change); a full
            // ROB tolerates decay.
            if (u < 0.15 || (!first && u < pu - cfg.changeThresh)) {
                f += cfg.attackStep * (fMax - fMin);
                ++nAttacks;
            } else {
                f *= 1.0 - decay;
            }
        } else if (u < cfg.idleThresh) {
            // Idle domain: decay fast toward the floor.
            f *= 1.0 - 4.0 * decay;
        } else if (u > 0.6 ||
                   (!first && u - pu > cfg.changeThresh)) {
            // Backlog high or growing: the domain fell behind.
            f += cfg.attackStep * (fMax - fMin);
            ++nAttacks;
        } else if (!first && pu - u > 2.0 * cfg.changeThresh) {
            // Backlog draining sharply: the domain runs well ahead.
            f -= cfg.attackStep * (fMax - fMin) * 0.5;
            ++nAttacks;
        } else {
            f *= 1.0 - decay;
        }
        ctl.setTarget(dom, std::clamp(f, fMin, fMax));
    }
    prevUtil = util;
    first = false;
}

} // namespace mcd::control
