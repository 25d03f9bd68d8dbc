/**
 * @file
 * Figure 9: sensitivity of energy savings to the definition of
 * calling context (Section 4.2), companion to Figure 8.
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
            opt, "Figure 9: energy savings (%) by context definition",
            &Metrics::energySavingsPct);
    return 0;
}
