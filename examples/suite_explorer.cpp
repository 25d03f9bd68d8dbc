/**
 * @file
 * Command-line explorer for the open workload/policy registries: run
 * any workload spec under any registered control policy and print
 * the paper's metrics.  Both sides use the spec-string grammar of
 * the bench binaries' `--workload` and `--policy` flags.
 *
 * Usage:
 *   suite_explorer                        # list workloads/policies
 *   suite_explorer <workload>             # every registered policy
 *   suite_explorer <workload> <spec>...   # the given specs, e.g.
 *       suite_explorer gsm_decode profile:mode=LFCP,d=5 global
 *       suite_explorer gen:phases=6,mem=0.7,seed=3 online:aggr=1.5
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "control/policy.hh"
#include "exp/experiment.hh"
#include "util/table.hh"
#include "workload/registry.hh"

using namespace mcd;

namespace
{

void
addRow(TextTable &t, const std::string &name, const exp::Outcome &o)
{
    t.row({name, TextTable::num(o.metrics.slowdownPct),
           TextTable::num(o.metrics.energySavingsPct),
           TextTable::num(o.metrics.energyDelayImprovementPct),
           TextTable::num(o.reconfigs, 0)});
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::printf("workloads (spec grammar "
                    "name[:key=value,...]):\n%s",
                    workload::describeWorkloads().c_str());
        std::printf("\npolicies (same grammar):\n%s",
                    control::describePolicies().c_str());
        std::printf("\nusage: %s <workload-spec> "
                    "[policy-spec ...]\n",
                    argv[0]);
        return 0;
    }
    std::string bench;
    try {
        bench = workload::canonicalWorkloadSpec(argv[1]);
    } catch (const workload::SpecError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    std::vector<control::PolicySpec> specs;
    try {
        for (int i = 2; i < argc; ++i)
            specs.push_back(control::canonicalPolicySpec(argv[i]));
    } catch (const workload::SpecError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    if (argc == 2) {
        // No specs given: every registered policy at its schema
        // defaults, except baseline — its metrics vs itself are all
        // zero, so the row carries no information.  Canonicalize so
        // the rows print the defaults they ran with.
        for (const control::Policy *p :
             control::PolicyRegistry::instance().list())
            if (std::string(p->name()) != "baseline")
                specs.push_back(control::canonicalPolicySpec(p->name()));
    }

    exp::ExpConfig cfg;
    cfg.cacheFile.clear();  // explorer runs are always fresh
    exp::Runner runner(cfg);

    TextTable t;
    t.header({"policy", "slowdown %", "savings %", "ExD gain %",
              "reconfigs"});
    for (const control::PolicySpec &spec : specs) {
        exp::Outcome o = runner.run(bench, spec);
        addRow(t, spec.str(), o);
        // Keyed on the outcome fields, not the policy name, so any
        // policy that fills them (profile, hybrid, future
        // pipeline-based ones) gets its diagnostics printed.
        if (o.globalFreq > 0.0)
            std::printf("matched chip frequency: %.0f MHz\n",
                        o.globalFreq);
        if (o.staticReconfigPoints > 0.0 ||
            o.staticInstrPoints > 0.0 || o.tableBytes > 0.0)
            std::printf(
                "%s: static points: %g reconfig / %g "
                "instrumentation; tables %.2f KB\n",
                spec.policy.c_str(), o.staticReconfigPoints,
                o.staticInstrPoints, o.tableBytes / 1024.0);
    }

    std::printf("%s (window %llu instructions, vs MCD baseline)\n",
                bench.c_str(),
                (unsigned long long)cfg.productionWindow);
    std::ostringstream os;
    t.print(os);
    std::fputs(os.str().c_str(), stdout);
    return 0;
}
