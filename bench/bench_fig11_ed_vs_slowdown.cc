/**
 * @file
 * Figure 11: suite-average energy x delay improvement as a function
 * of achieved slowdown (companion to Figure 10).  The paper's key
 * observation: the on-line algorithm's curve flattens beyond ~8%
 * slowdown while off-line and L+F remain near-linear.
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
            "Figure 11: energy-delay improvement vs. achieved "
            "slowdown (suite averages)",
            "avg ExD gain %", &Metrics::energyDelayImprovementPct);
    return 0;
}
