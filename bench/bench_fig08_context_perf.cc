/**
 * @file
 * Figure 8: sensitivity of performance degradation to the definition
 * of calling context (Section 4.2), for the applications that show
 * variation (bench/common.hh, printContextFigure()).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace mcd;
    using namespace mcd::bench;
    Options opt = parseArgs(argc, argv);
    if (!runPolicyOverride(opt))
        printContextFigure(
            opt, "Figure 8: performance degradation (%) by context "
                 "definition",
            &Metrics::slowdownPct);
    return 0;
}
