#include "core/threshold.hh"

namespace mcd::core
{

ThresholdConfig
thresholdConfigFor(double slowdown_pct, const ShakerConfig &shaker)
{
    ThresholdConfig c;
    c.slowdownPct = slowdown_pct;
    c.steps = shaker.steps;
    return c;
}

sim::FreqSet
chooseFrequencies(const NodeHistograms &node, const ThresholdConfig &cfg)
{
    sim::FreqSet out{};
    // Budget: d% of the node's analyzed wall time, expressed in
    // microseconds (cycles / MHz).
    double base_budget_us = cfg.slowdownPct / 100.0 *
                            static_cast<double>(node.spanPs) * 1e-6;

    for (std::size_t d = 0; d < node.hist.size(); ++d) {
        double share = d == domainIndex(Domain::FrontEnd)
                           ? cfg.frontEndShare
                           : cfg.perDomainShare;
        double budget_us = base_budget_us * share;
        const FreqHistogram &h = node.hist[d];
        const FreqSteps &steps = h.steps();
        if (h.totalCycles() <= 0.0) {
            out[d] = cfg.steps.minMhz();
            continue;
        }
        Mhz chosen = steps.maxMhz();
        for (int i = 0; i < steps.numSteps(); ++i) {
            Mhz f = steps.freqAt(i);
            double extra_us = 0.0;
            for (int b = i + 1; b < steps.numSteps(); ++b) {
                double cycles = h.binCycles(b);
                if (cycles <= 0.0)
                    continue;
                extra_us += cycles * (1.0 / f - 1.0 / steps.freqAt(b));
            }
            if (extra_us <= budget_us) {
                chosen = f;
                break;
            }
        }
        out[d] = cfg.steps.quantize(chosen);
    }
    return out;
}

} // namespace mcd::core
