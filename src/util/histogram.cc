#include "util/histogram.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/spec.hh"

namespace mcd
{

FreqSteps::FreqSteps(Mhz min_mhz, Mhz max_mhz, Mhz step_mhz)
    : minMhz_(min_mhz), maxMhz_(max_mhz), stepMhz_(step_mhz)
{
    if (min_mhz <= 0 || max_mhz < min_mhz || step_mhz <= 0)
        throw util::SpecError(
            strprintf("invalid frequency steps [%f, %f] step %f",
                      min_mhz, max_mhz, step_mhz));
    numSteps_ = static_cast<int>(
        std::floor((max_mhz - min_mhz) / step_mhz + 0.5)) + 1;
}

Mhz
FreqSteps::freqAt(int i) const
{
    if (i < 0)
        i = 0;
    if (i >= numSteps_)
        i = numSteps_ - 1;
    return minMhz_ + stepMhz_ * i;
}

int
FreqSteps::indexOf(Mhz f) const
{
    int i = static_cast<int>(std::floor((f - minMhz_) / stepMhz_ + 0.5));
    if (i < 0)
        i = 0;
    if (i >= numSteps_)
        i = numSteps_ - 1;
    return i;
}

FreqHistogram::FreqHistogram(const FreqSteps &steps)
    : steps_(steps), bins(static_cast<size_t>(steps.numSteps()), 0.0)
{
}

void
FreqHistogram::add(Mhz f, double cycles)
{
    bins[static_cast<size_t>(steps_.indexOf(f))] += cycles;
}

void
FreqHistogram::merge(const FreqHistogram &other)
{
    if (other.bins.size() != bins.size())
        panic("merging histograms with different step layouts");
    for (size_t i = 0; i < bins.size(); ++i)
        bins[i] += other.bins[i];
}

double
FreqHistogram::totalCycles() const
{
    double sum = 0.0;
    for (double b : bins)
        sum += b;
    return sum;
}

Mhz
FreqHistogram::meanFreq() const
{
    double sum = 0.0;
    double weighted = 0.0;
    for (size_t i = 0; i < bins.size(); ++i) {
        sum += bins[i];
        weighted += bins[i] * steps_.freqAt(static_cast<int>(i));
    }
    return sum > 0.0 ? weighted / sum : 0.0;
}

} // namespace mcd
