/**
 * @file
 * The workload authoring text format: a line-oriented grammar whose
 * `section: key=value, ...` lines describe a complete `Benchmark` —
 * program structure (functions, loops, call sites), per-block
 * `InstructionMix` knobs, arg profiles, and the training/reference
 * input sets.  Each section is a spec-engine kind (util/spec.hh):
 * a line is split and canonicalized against its section's schema,
 * which also fixes the order and format the printer writes.  See
 * docs/WORKLOADS.md for the full grammar with units and defaults.
 *
 * Round-trip contract: `printProgram()` emits *canonical* text —
 * sections in fixed order, every key present, numbers in canonical
 * 3-digit fixed form — and `parseProgram()` quantizes every numeric
 * value to that same form as it reads, so
 *
 *     printProgram(parseProgram(text))
 *
 * is idempotent, canonical text is a fixed point, and the canonical
 * text is bijective with the benchmark it describes (which is what
 * lets `WorkloadRegistry::addProgram()` content-address programs by
 * a hash of their canonical text).  Unknown sections or keys are
 * hard `SpecError`s that list what is accepted.
 */

#ifndef MCD_WORKLOAD_AUTHOR_HH
#define MCD_WORKLOAD_AUTHOR_HH

#include <string>

#include "workload/spec.hh"
#include "workload/suite.hh"

namespace mcd::workload
{

/**
 * Parse authored program text into a benchmark.  Throws SpecError
 * with a line-numbered message on any grammar or semantic error
 * (unknown section/key, call to an undefined function, empty loop,
 * missing `program:` header, ...).
 */
Benchmark parseProgram(const std::string &text);

/** Canonical authored text of @p bm (see the round-trip contract
 *  above).  Requires spec-safe names ([A-Za-z0-9_.-]+) for the
 *  program and its functions/knobs; throws SpecError otherwise. */
std::string printProgram(const Benchmark &bm);

/** Read a whole file (for `--workload @path`).  Throws SpecError if
 *  the file cannot be read. */
std::string readProgramFile(const std::string &path);

} // namespace mcd::workload

#endif // MCD_WORKLOAD_AUTHOR_HH
