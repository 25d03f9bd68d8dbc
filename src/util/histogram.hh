/**
 * @file
 * Frequency histograms used by the shaker and slowdown-thresholding
 * algorithms (Sections 3.2 and 3.3 of the paper).
 *
 * A FreqHistogram records, per discrete frequency step, the total
 * number of nominal-frequency cycles of work belonging to events that
 * the shaker scaled to run "at or near" that frequency.
 */

#ifndef MCD_UTIL_HISTOGRAM_HH
#define MCD_UTIL_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace mcd
{

/**
 * Discretization of the legal frequency range into uniform steps.
 *
 * The paper's MCD model scales 250 MHz - 1 GHz; we use 25 MHz bins
 * (31 steps) by default.
 */
class FreqSteps
{
  public:
    /**
     * @param min_mhz  lowest legal frequency
     * @param max_mhz  highest legal frequency
     * @param step_mhz bin width
     *
     * Throws util::SpecError unless 0 < min_mhz <= max_mhz and
     * step_mhz > 0.
     */
    FreqSteps(Mhz min_mhz = 250.0, Mhz max_mhz = 1000.0,
              Mhz step_mhz = 25.0);

    /** Number of discrete steps (inclusive of both endpoints). */
    int numSteps() const { return numSteps_; }

    /** Frequency of step @p i (0 = minimum). */
    Mhz freqAt(int i) const;

    /** Step index whose frequency is nearest to @p f (clamped). */
    int indexOf(Mhz f) const;

    /** Round @p f to the nearest legal step frequency (clamped). */
    Mhz quantize(Mhz f) const { return freqAt(indexOf(f)); }

    Mhz minMhz() const { return minMhz_; }
    Mhz maxMhz() const { return maxMhz_; }

  private:
    Mhz minMhz_;
    Mhz maxMhz_;
    Mhz stepMhz_;
    int numSteps_;
};

/**
 * Cycles-at-frequency histogram for one clock domain.
 *
 * The "cycles" recorded are nominal (full-frequency) cycles of work;
 * the slowdown-thresholding algorithm converts them to time at
 * candidate frequencies.
 */
class FreqHistogram
{
  public:
    explicit FreqHistogram(const FreqSteps &steps = FreqSteps());

    /** Add @p cycles of work scaled to frequency @p f. */
    void add(Mhz f, double cycles);

    /** Merge another histogram (same step layout) into this one. */
    void merge(const FreqHistogram &other);

    /** Sum of all recorded cycles. */
    double totalCycles() const;

    /** Cycles recorded in step @p i. */
    double binCycles(int i) const { return bins[static_cast<size_t>(i)]; }

    const FreqSteps &steps() const { return steps_; }

    /**
     * Weighted-average frequency of the recorded work (0 if empty).
     */
    Mhz meanFreq() const;

  private:
    FreqSteps steps_;
    std::vector<double> bins;
};

} // namespace mcd

#endif // MCD_UTIL_HISTOGRAM_HH
