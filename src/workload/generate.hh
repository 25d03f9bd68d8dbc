/**
 * @file
 * Seeded procedural workload generator: samples a phase-structured
 * program — per-phase instruction mixes (domain imbalance), loop
 * nests, input-gated train/reference divergence — from a small
 * parameter space, so sweeps can scale to hundreds of scenario
 * cells (`--workload gen:phases=4,mem=0.4,seed=7`) instead of the
 * 19 hand-built suite programs.
 *
 * Determinism contract: the same canonical spec produces a
 * bit-identical `Benchmark` in every process (the registry relies
 * on this to cache generated cells under their canonical spec
 * string).
 */

#ifndef MCD_WORKLOAD_GENERATE_HH
#define MCD_WORKLOAD_GENERATE_HH

#include <vector>

#include "workload/spec.hh"
#include "workload/suite.hh"

namespace mcd::workload
{

/** Parameter schema of the `gen` workload factory (single source of
 *  truth for defaults/ranges; documented in docs/WORKLOADS.md). */
std::vector<SpecParamInfo> generatorParams();

/**
 * Generate the benchmark described by @p spec, which must be
 * canonical against `generatorParams()` (the `gen` factory
 * canonicalizes; call through `makeBenchmark()` when starting from
 * text).
 */
Benchmark generate(const WorkloadSpec &spec);

} // namespace mcd::workload

#endif // MCD_WORKLOAD_GENERATE_HH
