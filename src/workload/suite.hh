/**
 * @file
 * The 19-benchmark synthetic suite standing in for MediaBench and
 * SPEC CPU2000 (Table 2 of the paper).
 *
 * Each benchmark is a structured Program plus a training and a
 * reference InputSet.  Programs encode the phase structure, domain
 * imbalance and training/reference divergences that the paper's
 * evaluation depends on; see docs/ARCHITECTURE.md
 * ("Suite construction") for the per-benchmark behaviours and the
 * substitution rationale.
 */

#ifndef MCD_WORKLOAD_SUITE_HH
#define MCD_WORKLOAD_SUITE_HH

#include <string>
#include <vector>

#include "workload/program.hh"

namespace mcd::workload
{

/** A benchmark: program + training and reference inputs. */
struct Benchmark
{
    Program program;
    InputSet train;
    InputSet ref;
};

/** Names of all 19 benchmarks, in the paper's order. */
const std::vector<std::string> &suiteNames();

/**
 * Construct a benchmark from any workload spec — a suite name, a
 * `gen:...` generator spec, or a `prog:...` authored-program handle
 * — through the workload registry (workload/registry.hh).  Unknown
 * names and malformed specs throw a catchable `workload::SpecError`
 * whose message lists every registered workload.
 */
Benchmark makeBenchmark(const std::string &spec);

namespace detail
{
/** The raw suite constructors, bypassing the registry; @p name must
 *  be a suiteNames() entry (panics otherwise).  Only the suite's
 *  registry factories should call this — everything else goes
 *  through makeBenchmark(). */
Benchmark buildSuiteBenchmark(const std::string &name);

/** One-line description of a suite benchmark for
 *  `--list-workloads`. */
const char *suiteDescription(const std::string &name);
} // namespace detail

} // namespace mcd::workload

#endif // MCD_WORKLOAD_SUITE_HH
