/**
 * @file
 * Phase 1: conventional performance profiling (the paper's ATOM
 * instrumentation pass).  A fast functional walk of the execution
 * stream grows the call tree through a growing TreeWalker and
 * identifies long-running nodes.
 */

#ifndef MCD_CORE_PROFILER_HH
#define MCD_CORE_PROFILER_HH

#include <cstdint>

#include "core/calltree.hh"
#include "workload/program.hh"

namespace mcd::core
{

/** Profiling parameters. */
struct ProfileConfig
{
    /** Cap on profiled instructions (0 = run to completion). */
    std::uint64_t maxInstrs = 5'000'000;
    /** Long-running node threshold (paper: 10,000 instructions). */
    std::uint64_t longRunningThreshold = 10'000;
};

/**
 * Profile @p program on @p input: build the call tree for
 * @p mode and mark long-running nodes.
 *
 * This is a functional (untimed) run — the paper's phase-one
 * profiling also measures only instruction counts.
 */
CallTree profileProgram(const workload::Program &program,
                        const workload::InputSet &input,
                        ContextMode mode,
                        const ProfileConfig &cfg = ProfileConfig());

} // namespace mcd::core

#endif // MCD_CORE_PROFILER_HH
