/**
 * @file
 * Workload definitions, set-up, sweep execution with per-cell failure
 * accounting, and the outcome digest of the repository benchmark.
 *
 * Every workload is a closed batch: one process drives a cold,
 * in-memory, exact-mode `exp::Runner::runSweep` over a fixed list of
 * {workload spec, policy spec} cells at a fixed thread count.  A cell
 * fails if its spec is refused up front, if running it throws, or if
 * its outcome differs from the expected one (the pinned digest, or a
 * `--jobs 1` re-run for cells the digest does not pin).
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.hh"

namespace perfbench
{

using mcd::exp::Outcome;
using mcd::exp::SweepCell;

/** Median of @p v; 0 if it is empty. */
double median(std::vector<double> v);

/** Seconds on the steady clock since @p t0. */
double secondsSince(std::chrono::steady_clock::time_point t0);

/** One named benchmark workload. */
struct Workload
{
    std::string name;
    /** Workload specs the cells run on, in first-use order. */
    std::vector<std::string> roster;
    /** The timed sweep, in `runSweep` order. */
    std::vector<SweepCell> cells;
    /** Production and analysis window, in instructions. */
    std::uint64_t window = 150'000;
    /** Sweep threads. */
    unsigned jobs = 4;
};

/** Names accepted by makeWorkload(), in documentation order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name.  @p seed picks the `gen:` workloads of the
 * tournament roster: seed 0 reproduces `workload::holdoutSplit()`
 * (generator seeds 7/21/33), seed s uses 7+1000s, 21+1000s and
 * 33+1000s.  Throws std::invalid_argument on an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** Harness configuration of @p w: its window, in-memory only. */
mcd::exp::ExpConfig configFor(const Workload &w);

/** `"<workload spec> <canonical-or-raw policy spec>"`. */
std::string cellId(const SweepCell &c);

/**
 * Canonical text of an outcome: every payload field and the three
 * baseline-relative metrics through `util::fmtDouble17`, so equal
 * text means bit-equal outcomes.
 */
std::string outcomeLine(const Outcome &o);

/** A workload's cells after pre-validation. */
struct Validated
{
    std::vector<SweepCell> cells;    ///< cells that may be run
    std::vector<std::size_t> index;  ///< their positions in the input
    std::vector<std::string> refused;  ///< one message per refused cell
};

/**
 * Canonicalize every cell's policy spec through the PolicyRegistry
 * and its workload spec through the WorkloadRegistry, catching
 * `workload::SpecError`, so a bad cell is counted instead of reaching
 * the `fatal()` inside `Runner::run`.
 */
Validated prevalidate(const std::vector<SweepCell> &cells);

/** Per-layer times of one traced set-up. */
struct SetupTrace
{
    double canonMs = 0.0;
    double buildMs = 0.0;
};

/** One set-up: the runner a cold sweep uses, and what it took. */
struct Setup
{
    double seconds = 0.0;
    Validated valid;
    std::unique_ptr<mcd::exp::Runner> runner;
};

/**
 * Canonicalize and build every roster workload once, pre-validate
 * every cell, and construct the Runner.  With @p trace set, each
 * call gets a span and its time lands in @p trace.
 */
Setup runSetup(const Workload &w, const mcd::exp::ExpConfig &cfg,
               SetupTrace *trace = nullptr);

/** Outcomes of one sweep, by position in the workload's cells. */
struct SweepOutcomes
{
    std::vector<std::optional<Outcome>> out;  ///< nullopt = failed
};

/**
 * Run the validated cells with `Runner::runSweep`.  If the sweep
 * throws, every cell is retried alone (memoized cells are free) so
 * only the cells that throw are counted as failed.
 */
SweepOutcomes runCells(mcd::exp::Runner &runner, const Validated &v,
                       std::size_t ncells, unsigned jobs);

/** Expected outcome text by cell id. */
using Expected = std::map<std::string, std::string>;

/** Load a pinned digest file (`<cell id>\t<outcome line>` rows);
 *  false if it cannot be read or is malformed. */
bool loadPinned(const std::string &path, Expected &out);

/** Write the pinned digest of @p w from @p got; false on I/O error. */
bool writePinned(const std::string &path, const Workload &w,
                 const SweepOutcomes &got);

/**
 * Extend @p expect with a `--jobs 1` cold run of every cell of @p w
 * it lacks (the seed-dependent cells of a non-default seed): one
 * serial runner per workload spec, up to `w.jobs` of them at once.
 * Returns the number of cells added; cells that fail there stay
 * absent and so count as mismatches.
 */
std::size_t addSerialReference(const Workload &w,
                               const mcd::exp::ExpConfig &cfg,
                               Expected &expect);

/** Cells whose outcome is missing or differs from @p expect; the
 *  first difference is described in @p first. */
std::size_t countMismatches(const Workload &w, const SweepOutcomes &got,
                            const Expected &expect, std::string *first);

/** FNV-1a over the `<cell id>\t<outcome line>` rows of @p got. */
std::uint64_t sweepDigest(const Workload &w, const SweepOutcomes &got);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
