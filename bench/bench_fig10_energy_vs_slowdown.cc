/**
 * @file
 * Figure 10: suite-average energy savings as a function of achieved
 * slowdown, for the on-line, off-line and profile-driven (L+F)
 * algorithms.  Off-line and L+F sweep the slowdown threshold d; the
 * on-line algorithm sweeps its aggressiveness
 * (bench/common.hh, printSlowdownCurves()).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace mcd;
    using namespace mcd::bench;
    Options opt = parseArgs(argc, argv);
    if (!runPolicyOverride(opt))
        printSlowdownCurves(
            opt,
            "Figure 10: energy savings vs. achieved slowdown (suite "
            "averages)",
            "avg savings %", &Metrics::energySavingsPct);
    return 0;
}
