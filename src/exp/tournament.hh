/**
 * @file
 * The policy tournament: every registered policy (at its schema
 * defaults, or an explicit roster) runs the full tournament workload
 * roster — curated suite benchmarks plus held-out `gen:` workloads
 * (workload/split.hh) — and each {policy, workload} cell is scored
 * as *regret* against the off-line oracle:
 *
 *     regret = oracle ED-improvement% - policy ED-improvement%
 *
 * i.e. how many energy*delay percentage points the policy leaves on
 * the table relative to perfect knowledge on the same workload
 * (both sides measured against the MCD baseline, Section 4.1, so
 * the baseline's regret is exactly the oracle's gain).  Policies
 * rank by mean regret, ascending; the holdout column isolates the
 * `gen:` workloads no heuristic was hand-tuned on, which is where a
 * learned policy has to earn its seat.
 *
 * Determinism: cells run through exp::Runner::runSweep(), whose
 * results come back in cell order at any thread count, and every
 * constituent simulation is bit-deterministic — so the ranked table
 * (and the bench_tournament JSON built from it) is byte-identical
 * across reruns and `--jobs` values.
 *
 * The tournament refuses sampled simulation outright: the default
 * roster contains feedback controllers (`online`, the `hybrid`
 * guard, `learned`) whose *decisions* diverge under sampling
 * (docs/SAMPLING.md, "Feedback policies"), and a ranking that mixes
 * trustworthy and untrustworthy rows is worse than no ranking.
 */

#ifndef MCD_EXP_TOURNAMENT_HH
#define MCD_EXP_TOURNAMENT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/experiment.hh"

namespace mcd::exp
{

/**
 * Tournament shape.  Everything here only *selects* cells — each
 * cell's outcome is keyed by its own canonical policy/workload specs
 * and the runner's config fingerprint — so no field shapes a cached
 * value and none joins the fingerprint (tools/mcd_lint.py audits
 * this struct; see the per-field annotations).
 */
struct TournamentConfig
{
    /** Oracle spec every cell's regret is measured against. */
    // mcd-lint: allow(fingerprint-complete): the oracle's outcome
    // caches under its own canonical spec key; this field only names
    // which key to compare against.
    std::string oracle = "offline:d=10";
    /** Policy specs to rank; empty = every registered policy, at
     *  its schema defaults. */
    // mcd-lint: allow(fingerprint-complete): cell selection only —
    // each selected cell keys on its canonical spec.
    std::vector<std::string> policies;
    /** Workload specs to run; empty =
     *  workload::tournamentWorkloads(). */
    // mcd-lint: allow(fingerprint-complete): cell selection only —
    // each selected cell keys on its canonical workload spec.
    std::vector<std::string> workloads;
};

/** One scored {policy, workload} cell. */
struct TournamentCell
{
    std::string workload;  ///< canonical workload spec
    std::string policy;    ///< canonical policy spec
    bool holdout = false;  ///< generated (`gen:`) workload?
    Outcome outcome;
    /** Regret vs the oracle on this workload (percentage points of
     *  energy*delay improvement; 0 = matched the oracle). */
    double regretPct = 0.0;
};

/** One ranked row: a policy aggregated over every workload. */
struct TournamentRow
{
    std::string policy;  ///< canonical policy spec
    double meanRegretPct = 0.0;     ///< over all workloads
    double holdoutRegretPct = 0.0;  ///< over holdout workloads only
    double meanEdGainPct = 0.0;     ///< mean ED-improvement vs baseline
    double meanSlowdownPct = 0.0;
    std::vector<TournamentCell> cells;  ///< in workload order
};

/** A finished tournament: rows ranked by mean regret, ascending
 *  (ties by canonical policy spec). */
struct TournamentResult
{
    std::string oracle;  ///< canonical oracle spec
    std::vector<std::string> workloads;  ///< canonical, in run order
    std::size_t holdoutCount = 0;        ///< how many are `gen:`
    std::vector<TournamentRow> ranking;
};

/**
 * The cross-product sweep.  Construction canonicalizes the whole
 * plan — oracle, roster, workloads — and throws
 * `workload::SpecError` on any malformed spec, an empty roster/
 * workload list, or a sampled-mode runner; nothing simulates until
 * run().
 */
class Tournament
{
  public:
    Tournament(Runner &runner,
               const TournamentConfig &cfg = TournamentConfig());

    /** Canonical policy roster, in ranking tie-break order. */
    const std::vector<std::string> &policies() const
    {
        return roster;
    }

    /** Canonical workloads, in run order. */
    const std::vector<std::string> &workloads() const
    {
        return loads;
    }

    /** Canonical oracle spec. */
    const std::string &oracle() const { return oracleSpec; }

    /**
     * The memo/CSV cache keys of every cell the tournament will run
     * — oracle cells first, then policy-major cell order.  Exposed
     * so tests can pin key stability and fuzzers can prove malformed
     * cells die in the constructor, not here.
     */
    std::vector<std::string> cellKeys() const;

    /** Run every cell (through the runner's memo) and rank. */
    TournamentResult run(unsigned jobs = 0);

  private:
    Runner &runner;
    std::string oracleSpec;
    std::vector<std::string> roster;
    std::vector<std::string> loads;
    std::vector<bool> holdout;  ///< per load
};

/** Render @p r as the ranked text table bench_tournament prints. */
std::string renderTournamentTable(const TournamentResult &r);

} // namespace mcd::exp

#endif // MCD_EXP_TOURNAMENT_HH
