/**
 * @file
 * Experiment harness shared by the benchmark binaries: runs each
 * benchmark under any policy registered with
 * `control::PolicyRegistry` (the paper's five — baseline, profile,
 * off-line oracle, on-line attack/decay, global DVS — plus anything
 * added since, e.g. `hybrid`), computing the paper's metrics
 * (always relative to the MCD baseline, Section 4.1).
 *
 * Policies are addressed by `control::PolicySpec` strings
 * (`profile:mode=LF,d=10`, `online:aggr=1.5`, `global`); benchmarks
 * by `workload::WorkloadSpec` strings — a suite name (`gzip`), a
 * generator spec (`gen:phases=4,mem=0.4,seed=7`) or an
 * authored-program handle (`prog:name=...,hash=...`), resolved
 * through the `WorkloadRegistry`.  The canonical form of both specs
 * is the single source of truth for memo/CSV cache keys, CLI
 * selection and sweep construction.
 *
 * The harness is a parallel sweep engine: every {benchmark, spec}
 * cell of a figure is an independent job, and Runner::runSweep()
 * spreads the cells over a work-stealing thread pool (`--jobs N` in
 * the bench binaries; `--jobs 1` reproduces the old serial loops
 * exactly).
 *
 * Results are memoized in an in-memory map and, optionally,
 * appended to a CSV cache file so that the per-figure bench binaries
 * do not recompute shared sweeps.  Cache keys embed a fingerprint of
 * the active SimConfig/PowerConfig so binaries run with different
 * configurations can share one cache file without reading each
 * other's outcomes.
 */

#ifndef MCD_EXP_EXPERIMENT_HH
#define MCD_EXP_EXPERIMENT_HH

#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "chip/chip.hh"
#include "chip/config.hh"
#include "control/policy.hh"
#include "core/pipeline.hh"
#include "power/power.hh"
#include "sim/processor.hh"
#include "util/stats.hh"

namespace mcd::exp
{

/** Harness configuration shared by all experiments. */
struct ExpConfig
{
    sim::SimConfig sim;
    power::PowerConfig power;
    /** Production-run window (instructions). */
    // mcd-lint: allow(fingerprint-complete): spelled into the
    // cache-key text by every policy's contextKey() (e.g. `w150000`),
    // so hashing it too would only split keys for policies that
    // never read it.
    std::uint64_t productionWindow = 150'000;
    /** Analysis-run window for the profile pipeline. */
    // mcd-lint: allow(fingerprint-complete): keyed via the profile
    // policies' contextKey() fragments; policies that skip the
    // analysis run are deliberately insensitive to it.
    std::uint64_t analysisWindow = 150'000;
    /** Profiling cap for phase 1 (functional run). */
    std::uint64_t profileMaxInstrs = 4'000'000;
    /** Off-line oracle reconfiguration interval. */
    // mcd-lint: allow(fingerprint-complete): keyed via the offline
    // policy's contextKey() fragment (`i10000`); hashing it would
    // spuriously miss for policies that never run the oracle
    // (pinned by PolicyCacheKey.ContextKnobsAndConfigChangeTheKey).
    std::uint64_t offlineInterval = 10'000;
    /** CSV memo file; empty = in-memory only. */
    // mcd-lint: allow(fingerprint-complete): names where outcomes are
    // stored, never what they are.
    std::string cacheFile;
    /** Sweep parallelism; 0 = hardware_concurrency(). */
    // mcd-lint: allow(fingerprint-complete): scheduling only — cell
    // results are independent of the thread count (CI pins --jobs 1
    // vs --jobs N identity).
    unsigned jobs = 0;
    /** Shared-uncore knobs for chip cells (src/chip/config.hh); all
     *  of them join the fingerprint, so chip sweep cells run with a
     *  different uncore never share cache lines. */
    chip::ChipConfig chip;
    /** Training regime for the `learned` policy
     *  (src/control/learned.hh); both knobs join the fingerprint
     *  (prefix `ln`), so learned outcomes trained under different
     *  regimes never share cache lines. */
    control::LearnedConfig learned;

    ExpConfig()
    {
        // Our instruction windows are ~1000x shorter than the
        // paper's; scale the DVFS transition rate so ramps keep a
        // comparable (small but visible) share of a reconfigurable
        // phase.  See docs/ARCHITECTURE.md, "Time-scaled DVFS ramp".
        sim.rampNsPerMhz = 2.2;
    }
};

/**
 * 64-bit FNV-1a fingerprint of every SimConfig/PowerConfig knob (and
 * the profiling cap) that shapes an outcome but is not spelled out in
 * the cache-key text.  Folded into every memo-cache key so two
 * harnesses with different configurations never exchange outcomes
 * through a shared cache file.
 */
std::uint64_t configFingerprint(const ExpConfig &cfg);

/** Result of one policy run on one benchmark. */
using Outcome = control::Outcome;

/**
 * One independently-runnable {benchmark, policy spec} cell of a
 * sweep.  (Chip runs use ChipCell below: a chip cell produces one
 * outcome per tile plus an uncore row, so it does not fit the
 * one-cell-one-outcome sweep contract.)
 */
struct SweepCell
{
    /** Any workload spec (suite name, `gen:...`, `prog:...`). */
    std::string bench;
    control::PolicySpec spec;

    static SweepCell of(std::string bench, control::PolicySpec spec);
    /** Canonicalizes @p spec_text (control::canonicalPolicySpec);
     *  throws workload::SpecError on a bad spec. */
    static SweepCell of(std::string bench,
                        const std::string &spec_text);
};

/**
 * One co-scheduled run of a tiled chip (chip::Chip): a co-schedule
 * (`multi:` or a plain spec replicated over @p tiles), the per-tile
 * policy every tile runs (must be tile-capable — see
 * `control::Policy::makeTileController()`), and an optional
 * `chip-coord:` coordinator spec for the shared uncore.
 */
struct ChipCell
{
    /** Co-schedule: `multi:t0=...,t1=...` or a plain workload spec
     *  replicated across the tiles. */
    std::string workload;
    /** Tile count; for a `multi:` workload 0 means "as named". */
    int tiles = 0;
    /** Per-tile policy (default: the MCD baseline, max speed). */
    control::PolicySpec tilePolicy = control::PolicySpec::of("baseline");
    /** Chip coordinator spec (`chip-coord:...`); "" = uncore pinned
     *  at its maximum frequency. */
    std::string coord;
};

/**
 * The harness knobs of @p cfg as a policy sees them.  Runner adds its
 * memoized evaluator and artifact store on top.
 */
control::PolicyContext policyContext(const ExpConfig &cfg);

/** A chip cell's validated, canonical parts. */
struct ChipPlan
{
    control::PolicySpec tilePolicy;           ///< canonical
    const control::Policy *policy = nullptr;  ///< tile-capable
    std::vector<std::string> tileSpecs;       ///< canonical, per tile
    chip::CoordConfig coord;
};

/**
 * The chip checks, which need no Runner: canonicalize @p cell's tile
 * policy and co-schedule, refuse sampled simulation (chip cells
 * always run exact), parse the coordinator spec and require a
 * tile-capable policy — in that order.  Throws workload::SpecError
 * at the first failure.
 */
ChipPlan planChipCell(const ChipCell &cell,
                      const control::PolicyContext &ctx);

/**
 * Memoizing, concurrency-safe experiment runner.
 *
 * run() may be called from any number of threads; runSweep() is the
 * batch interface the bench binaries use.
 */
class Runner
{
  public:
    explicit Runner(const ExpConfig &cfg = ExpConfig());

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /**
     * Run every cell, spreading them over a work-stealing pool of
     * @p jobs threads (0 = the config's `jobs`, which itself
     * defaults to hardware_concurrency()).  Results come back in
     * cell order regardless of the thread count, and with one job
     * the cells run inline on the calling thread.
     *
     * The sweep runs in two waves, each in cell order: first every
     * cell whose policy is measured against the baseline, raw; then
     * the other cells (the baselines) and the first wave's metrics.
     * So every off-line analysis the sweep builds has finished
     * before a baseline is asked for, and serves it (the baseline
     * policy reads the analysis run instead of simulating).
     */
    std::vector<Outcome> runSweep(const std::vector<SweepCell> &cells,
                                  unsigned jobs = 0);

    /** Run one cell. */
    Outcome run(const SweepCell &cell);

    /**
     * Run @p spec on @p bench: canonicalize against the registry
     * (throws workload::SpecError on an unknown policy/parameter or
     * a bad workload spec, before anything is memoized), memoize
     * under the canonical cache key, and compute metrics vs the MCD
     * baseline where the policy asks for it.
     */
    Outcome run(const std::string &bench,
                const control::PolicySpec &spec);

    /**
     * Like run(bench, spec), but also reports whether the *outer*
     * cell was served from the memo (@p memo_hit = true) or computed
     * by this call (false).  Dependency cells the policy evaluates
     * internally (the baseline for metrics, offline for global) do
     * not affect the flag — they show up in the aggregate counters
     * below instead.
     */
    Outcome run(const std::string &bench,
                const control::PolicySpec &spec, bool *memo_hit);

    /**
     * Run a co-scheduled chip cell: N tiles under one per-tile
     * policy with the shared uncore coupling them.  Returns N+1
     * outcomes — index k < N is tile k, mirroring that policy's own
     * single-core Outcome mapping (timePs/energyNj/reconfigs), index
     * N is the uncore summary row (global end time, shared-fabric
     * energy, coordinator reconfig count, average uncore MHz in
     * globalFreq).  Each row memoizes under its own `tile=` cache
     * key (see chipCacheKeys()), so a chip cell whose rows are all
     * cached is served without simulating; a partial cache
     * recomputes the whole (deterministic) chip once.  When
     * @p row_hits is non-null it receives one memo-hit flag per row.
     * Throws workload::SpecError on a bad co-schedule or coordinator
     * spec, or a per-tile policy that is not tile-capable.
     */
    std::vector<Outcome> runChip(const ChipCell &cell,
                                 std::vector<bool> *row_hits =
                                     nullptr);

    /**
     * The N+1 memo/CSV cache keys of a chip cell, tile rows then the
     * uncore row: `v<CACHE_VERSION>|c<fingerprint>|chip:tiles=N,
     * tile=<k|u>|<coord spec or coord=off>|<tile policy spec>|
     * <canonical multi spec>|<tile policy context key>`.
     */
    std::vector<std::string> chipCacheKeys(const ChipCell &cell) const;

    const ExpConfig &config() const { return cfg; }

    /** Entries accepted from the CSV cache file at construction. */
    std::size_t loadedFromCache() const { return nLoaded; }

    /** Non-empty CSV lines rejected as malformed at construction. */
    std::size_t rejectedCacheLines() const { return nRejected; }

    /**
     * Memoized requests served without computing: duplicates of an
     * in-flight or finished cell, plus cells preloaded from the CSV
     * cache.  Counts every memo lookup, including the dependency
     * cells policies evaluate internally (metrics baselines, the
     * offline run behind global DVS).
     */
    std::uint64_t memoHits() const { return nHits.load(); }

    /** Memoized requests that computed their cell (the memo owner).
     *  `memoMisses()` of a sweep equals its number of distinct
     *  simulated cells — the server's duplicate-suppression tests
     *  key off exactly this. */
    std::uint64_t memoMisses() const { return nMisses.load(); }

    /**
     * The memo/CSV cache key of a canonical spec on this runner:
     * `v<CACHE_VERSION>|c<fingerprint>|<canonical policy spec>|
     * <canonical workload spec>|<policy context key>`.  The bench
     * field is canonicalized through the WorkloadRegistry, so
     * parameter order/formatting of a `gen:...` or `prog:...` spec
     * never splits a cell.  Exposed so tests can pin key stability;
     * throws workload::SpecError on a bad policy or workload spec.
     */
    std::string cacheKey(const std::string &bench,
                         const control::PolicySpec &spec) const;

  private:
    /**
     * The one compute-once protocol, shared by the outcome memo and
     * the artifact store: concurrent requests for one key compute it
     * once — the inserting thread computes, the others block on its
     * shared future.  A throwing computation reaches every waiter and
     * drops the entry, so a later request recomputes.
     */
    template <class V>
    struct OnceMap
    {
        std::mutex m;
        std::unordered_map<std::string, std::shared_future<V>> map;

        /** The value for @p key, computed by @p compute unless
         *  another request did or does; @p computed (optional) is set
         *  to whether this call computed it. */
        V get(const std::string &key, const std::function<V()> &compute,
              bool *computed = nullptr);
        /** The value of @p key if its computation has finished, else
         *  V{}; never computes or waits. */
        V find(const std::string &key);
    };
    /** Canonicalize @p spec and @p bench (throws
     *  workload::SpecError on either), resolve the policy and build
     *  the memo/CSV key — the single definition of the key layout,
     *  shared by run() and cacheKey(). */
    std::string resolve(const std::string &bench,
                        const control::PolicySpec &spec,
                        control::PolicySpec &canon,
                        std::string &canonBench,
                        const control::Policy *&policy) const;
    /** planChipCell() on this runner's context, plus the cell's
     *  N+1 keys.  Throws workload::SpecError on any bad part. */
    std::vector<std::string> resolveChip(const ChipCell &cell,
                                         ChipPlan &plan) const;
    /** run(bench, spec, memo_hit) without the metrics; also returns
     *  the canonical workload and the resolved policy. */
    Outcome runRaw(const std::string &bench,
                   const control::PolicySpec &spec,
                   std::string &canonBench,
                   const control::Policy *&policy, bool *memo_hit);
    Outcome memoize(const std::string &key,
                    const std::function<Outcome()> &compute,
                    bool *computed = nullptr);
    void store(const std::string &key, const Outcome &o);
    void loadCache();
    Metrics vsBaseline(const std::string &bench, const Outcome &o);
    std::string keyPrefix() const;

    ExpConfig cfg;
    control::PolicyContext ctx;
    std::uint64_t fingerprint;
    OnceMap<Outcome> memo;
    /**
     * The context's artifact store (control::sharedArtifact): what
     * cells derive alike — a profile training per (tree, bench), an
     * off-line analysis per bench, a sampled-mode checkpoint set per
     * bench — built once and kept in memory only.  Artifacts are a
     * function of cache-keyed inputs, so they never reach the CSV.
     */
    OnceMap<std::shared_ptr<const void>> artifacts;
    /** The CSV cache, open for appending until a write fails;
     *  store() appends and flushes one whole line per computed cell
     *  under `cacheMutex`. */
    std::mutex cacheMutex;
    std::ofstream cacheOut;
    std::size_t nLoaded = 0;
    std::size_t nRejected = 0;
    std::atomic<std::uint64_t> nHits{0};
    std::atomic<std::uint64_t> nMisses{0};
};

} // namespace mcd::exp

#endif // MCD_EXP_EXPERIMENT_HH
