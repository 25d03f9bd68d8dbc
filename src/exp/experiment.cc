#include "exp/experiment.hh"

#include <chrono>
#include <iterator>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "chip/multi.hh"
#include "util/logging.hh"
#include "util/pool.hh"
#include "util/text.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"

namespace mcd::exp
{

namespace
{

/** Cache schema version: bump when simulation physics or the key or
 *  line format change, and re-pin the fingerprint digest
 *  (tools/mcd_lint.py rule `cache-version-pin`).  What each version
 *  changed: the `CACHE_VERSION` history table in
 *  docs/ARCHITECTURE.md, layer 8. */
constexpr int CACHE_VERSION = 9;

/** The numeric payload of a cache line (after the key), in line
 *  order — the one field list both the writer and the parser walk. */
constexpr double Outcome::*LINE_FIELDS[] = {
    &Outcome::timePs,
    &Outcome::energyNj,
    &Outcome::reconfigs,
    &Outcome::overheadCycles,
    &Outcome::feCycles,
    &Outcome::dynReconfigPoints,
    &Outcome::dynInstrPoints,
    &Outcome::staticReconfigPoints,
    &Outcome::staticInstrPoints,
    &Outcome::tableBytes,
    &Outcome::globalFreq,
    &Outcome::timeCiPs,
    &Outcome::energyCiNj,
};

/** Numeric payload fields per cache line (after the key). */
constexpr std::size_t NUM_LINE_FIELDS = std::size(LINE_FIELDS);

std::string
outcomeToLine(const std::string &key, const Outcome &o)
{
    // util::fmtDouble17 is the sanctioned double formatter for
    // persisted lines: C-locale '.' decimal points regardless of
    // setlocale(), 17 significant digits so values round-trip
    // exactly.
    std::string line = key;
    for (double Outcome::*f : LINE_FIELDS) {
        line += ',';
        line += util::fmtDouble17(o.*f);
    }
    return line;
}

/**
 * Parse one cache line.  The key is a canonical spec key and may
 * itself contain commas (`...|profile:mode=LF,d=10.000|...`), so the
 * payload is taken as the *last* NUM_LINE_FIELDS comma-separated
 * cells and everything before them is the key.  Rejects (returns
 * false on) anything without a non-empty key and exactly
 * NUM_LINE_FIELDS well-formed trailing numbers: truncated lines from
 * interrupted runs, non-numeric cells (e.g. locale-mangled
 * decimals).
 */
bool
lineToOutcome(const std::string &line, std::string &key, Outcome &o)
{
    std::size_t end = line.size();
    for (std::size_t i = NUM_LINE_FIELDS; i-- > 0;) {
        std::size_t comma = line.rfind(',', end == 0 ? 0 : end - 1);
        if (comma == std::string::npos)
            return false;
        if (!util::parseDouble(line.substr(comma + 1, end - comma - 1),
                               o.*LINE_FIELDS[i]))
            return false;
        end = comma;
    }
    if (end == 0)
        return false;
    key = line.substr(0, end);
    return true;
}

} // namespace

std::uint64_t
configFingerprint(const ExpConfig &cfg)
{
    // Every SimConfig/PowerConfig knob, plus the profiling cap; the
    // remaining ExpConfig parameters (windows, intervals) are
    // spelled out in the cache-key text itself via the policies'
    // contextKey() fragments.  The field list is machine-checked
    // against sim/config.hh, power/power.hh and exp/experiment.hh
    // by tools/mcd_lint.py (rule `fingerprint-complete`; fields
    // deliberately left out carry an allow annotation at their
    // declaration), and its digest is pinned to CACHE_VERSION by
    // rule `cache-version-pin`.
    util::Fnv1a f;
    const sim::SimConfig &s = cfg.sim;
    f.i64(s.fetchWidth);
    f.i64(s.dispatchWidth);
    f.i64(s.retireWidth);
    f.i64(s.robSize);
    f.i64(s.intIqSize);
    f.i64(s.fpIqSize);
    f.i64(s.lsqSize);
    f.i64(s.intRegs);
    f.i64(s.fpRegs);
    f.i64(s.intAlus);
    f.i64(s.intMulDiv);
    f.i64(s.fpAlus);
    f.i64(s.fpMulDiv);
    f.i64(s.memPorts);
    f.i64(s.intIssueWidth);
    f.i64(s.fpIssueWidth);
    f.i64(s.memIssueWidth);
    f.i64(s.latIntAlu);
    f.i64(s.latIntMul);
    f.i64(s.latIntDiv);
    f.i64(s.latFpAdd);
    f.i64(s.latFpMul);
    f.i64(s.latFpDiv);
    f.i64(s.latFpSqrt);
    f.i64(s.decodeDepth);
    f.i64(s.mispredictPenalty);
    f.i64(s.fetchQueueSize);
    f.u64(s.lineSize);
    f.u64(s.l1iSizeKb);
    f.i64(s.l1iWays);
    f.u64(s.l1dSizeKb);
    f.i64(s.l1dWays);
    f.i64(s.l1Latency);
    f.u64(s.l2SizeKb);
    f.i64(s.l2Ways);
    f.i64(s.l2Latency);
    f.u64(s.memLatencyPs);
    f.u64(s.memBusPs);
    f.f64(s.maxMhz);
    f.f64(s.minMhz);
    f.f64(s.maxVolt);
    f.f64(s.minVolt);
    f.f64(s.rampNsPerMhz);
    f.u64(s.jitterPs);
    f.f64(s.syncWindowFrac);
    f.u64(s.singleClock ? 1 : 0);
    f.u64(s.jitterSeed);
    f.u64(s.fastForward ? 1 : 0);

    const sim::SamplingConfig &sp = s.sampling;
    f.u64(static_cast<std::uint64_t>(sp.mode));
    f.u64(sp.intervalInstrs);
    f.u64(sp.sampleInstrs);
    f.u64(sp.warmupInstrs);
    f.f64(sp.ciBiasPct);

    const power::PowerConfig &p = cfg.power;
    for (double v : p.unitPj)
        f.f64(v);
    for (double v : p.clockPj)
        f.f64(v);
    for (double v : p.leakW)
        f.f64(v);
    f.f64(p.vMax);
    for (double v : p.domainWeight)
        f.f64(v);

    f.u64(cfg.profileMaxInstrs);

    const chip::ChipConfig &ch = cfg.chip;
    f.i64(ch.l2PortCycles);
    f.f64(ch.uncoreMaxMhz);
    f.f64(ch.uncoreMinMhz);
    f.u64(ch.coordIntervalPs);
    f.f64(ch.uncoreClockPj);
    f.f64(ch.uncoreLeakW);

    const control::LearnedConfig &ln = cfg.learned;
    f.u64(ln.trainWindow);
    f.u64(ln.trainPasses);
    return f.value();
}

SweepCell
SweepCell::of(std::string bench, control::PolicySpec spec)
{
    SweepCell c;
    c.bench = std::move(bench);
    c.spec = std::move(spec);
    return c;
}

SweepCell
SweepCell::of(std::string bench, const std::string &spec_text)
{
    return of(std::move(bench), control::canonicalPolicySpec(spec_text));
}

control::PolicyContext
policyContext(const ExpConfig &cfg)
{
    control::PolicyContext ctx;
    ctx.sim = cfg.sim;
    ctx.power = cfg.power;
    ctx.productionWindow = cfg.productionWindow;
    ctx.analysisWindow = cfg.analysisWindow;
    ctx.profileMaxInstrs = cfg.profileMaxInstrs;
    ctx.offlineInterval = cfg.offlineInterval;
    ctx.learned = cfg.learned;
    return ctx;
}

Runner::Runner(const ExpConfig &c)
    : cfg(c), ctx(policyContext(c)), fingerprint(configFingerprint(c))
{
    // Cross-policy dependencies (global -> offline, metrics ->
    // baseline) resolve through the runner's memo, so shared
    // sub-runs are computed once no matter which thread or policy
    // asks first.
    ctx.evaluate = [this](const std::string &bench,
                          const control::PolicySpec &spec) {
        return run(bench, spec);
    };
    // What cells derive alike (a d grid's training and off-line
    // analysis, sampled-mode checkpoints) is built once per runner.
    ctx.artifacts =
        [this](const std::string &key,
               const std::function<std::shared_ptr<const void>()>
                   &build) {
            if (!build)
                return artifacts.find(key);
            bool built = false;
            std::shared_ptr<const void> a =
                artifacts.get(key, build, &built);
#if defined(__GLIBC__)
            // The artifact's small blocks were allocated among the far
            // larger transient ones of its build (the analysis
            // simulation, the shaker's DAGs) and outlive them, pinning
            // that freed memory in the thread's malloc arena, which
            // only shrinks from its top.  Hand it back to the system.
            if (built)
                malloc_trim(0);
#endif
            return a;
        };
    loadCache();
    if (!cfg.cacheFile.empty()) {
        // Lines are pre-formatted (outcomeToLine routes doubles
        // through util::fmtDouble17), so the stream needs no locale
        // fiddling of its own.
        cacheOut.open(cfg.cacheFile, std::ios::app);
        if (!cacheOut.is_open())
            warn("result cache '%s' is not writable; "
                 "outcomes will not be persisted",
                 cfg.cacheFile.c_str());
    }
}

std::string
Runner::keyPrefix() const
{
    return strprintf("v%d|c%016llx", CACHE_VERSION,
                     (unsigned long long)fingerprint);
}

std::string
Runner::resolve(const std::string &bench,
                const control::PolicySpec &spec,
                control::PolicySpec &canon,
                std::string &canonBench,
                const control::Policy *&policy) const
{
    canon = control::canonicalPolicySpec(spec);
    policy = control::PolicyRegistry::instance().find(canon.policy);
    // The bench field of the key is the *canonical* workload spec:
    // `gen:seed=7,phases=4` and `gen:phases=4,seed=7` are one cell.
    canonBench = workload::canonicalWorkloadSpec(bench);
    return keyPrefix() + '|' + canon.str() + '|' + canonBench +
           '|' + policy->contextKey(ctx);
}

std::string
Runner::cacheKey(const std::string &bench,
                 const control::PolicySpec &spec) const
{
    control::PolicySpec canon;
    std::string canonBench;
    const control::Policy *policy = nullptr;
    return resolve(bench, spec, canon, canonBench, policy);
}

void
Runner::loadCache()
{
    if (cfg.cacheFile.empty())
        return;
    // Lines are read whole (getline) and numbers parsed with the
    // locale-independent util::parseDouble, so the stream itself
    // performs no locale-sensitive conversions.
    std::ifstream in(cfg.cacheFile);
    if (!in)
        return;
    constexpr std::size_t MAX_LINE_WARNINGS = 5;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::string key;
        Outcome o;
        if (!lineToOutcome(line, key, o)) {
            ++nRejected;
            if (nRejected <= MAX_LINE_WARNINGS)
                warn("cache %s:%zu: malformed line ignored",
                     cfg.cacheFile.c_str(), lineno);
            continue;
        }
        std::promise<Outcome> p;
        p.set_value(o);
        // Last occurrence wins, as with the old std::map overwrite.
        memo.map[key] = p.get_future().share();
        ++nLoaded;
    }
    if (nRejected > MAX_LINE_WARNINGS)
        warn("cache %s: %zu malformed lines ignored in total",
             cfg.cacheFile.c_str(), nRejected);
}

template <class V>
V
Runner::OnceMap<V>::get(const std::string &key,
                        const std::function<V()> &compute,
                        bool *computed)
{
    std::promise<V> prom;
    std::shared_future<V> fut;
    bool owner = false;
    {
        std::lock_guard<std::mutex> l(m);
        auto it = map.find(key);
        if (it != map.end()) {
            fut = it->second;
        } else {
            fut = prom.get_future().share();
            map.emplace(key, fut);
            owner = true;
        }
    }
    if (computed)
        *computed = owner;
    if (!owner)
        return fut.get();
    try {
        V v = compute();
        prom.set_value(v);
        return v;
    } catch (...) {
        // Unblock concurrent waiters with the exception, but drop
        // the entry so a later request recomputes instead of
        // rethrowing a stale failure forever.
        prom.set_exception(std::current_exception());
        {
            std::lock_guard<std::mutex> l(m);
            map.erase(key);
        }
        throw;
    }
}

template <class V>
V
Runner::OnceMap<V>::find(const std::string &key)
{
    std::shared_future<V> fut;
    {
        std::lock_guard<std::mutex> l(m);
        auto it = map.find(key);
        if (it == map.end())
            return V{};
        fut = it->second;
    }
    if (fut.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
        return V{};
    try {
        return fut.get();
    } catch (...) {
        // A failed computation is not a finished one; its requesters
        // received the error, and the entry is on its way out.
        return V{};
    }
}

void
Runner::store(const std::string &key, const Outcome &o)
{
    std::string line = outcomeToLine(key, o) + '\n';
    std::lock_guard<std::mutex> l(cacheMutex);
    if (!cacheOut.is_open())
        return;
    // Flushed whole, so the line reaches the file with its newline in
    // one append: other runners may append to the same file between
    // our lines, never inside one.
    cacheOut << line << std::flush;
    if (cacheOut.fail()) {
        warn("writing to the result cache failed; "
             "disabling further appends");
        cacheOut.close();
    }
}

Outcome
Runner::memoize(const std::string &key,
                const std::function<Outcome()> &compute,
                bool *computed)
{
    bool owner = false;
    Outcome o = memo.get(
        key,
        [&] {
            nMisses.fetch_add(1, std::memory_order_relaxed);
            Outcome fresh = compute();
            store(key, fresh);
            return fresh;
        },
        &owner);
    if (!owner)
        nHits.fetch_add(1, std::memory_order_relaxed);
    if (computed)
        *computed = owner;
    return o;
}

Metrics
Runner::vsBaseline(const std::string &bench, const Outcome &o)
{
    Outcome base = run(bench, control::PolicySpec::of("baseline"));
    return computeMetrics(o.timePs, o.energyNj, base.timePs,
                          base.energyNj);
}

std::vector<Outcome>
Runner::runSweep(const std::vector<SweepCell> &cells, unsigned jobs)
{
    // Wave 1 runs the cells measured against the baseline, raw, so
    // every analysis they build has finished before wave 2 runs the
    // rest and fills wave 1's metrics with one baseline lookup per
    // cell, as run() does.  A cell of an unknown policy joins wave 1,
    // where it throws.
    const unsigned n = jobs ? jobs : cfg.jobs;
    const control::PolicyRegistry &reg =
        control::PolicyRegistry::instance();
    std::vector<std::size_t> first;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const control::Policy *p = reg.find(cells[i].spec.policy);
        if (!p || p->relativeToBaseline())
            first.push_back(i);
    }
    std::vector<Outcome> out(cells.size());
    // The canonical workload of each first-wave cell; empty for the
    // second wave's own cells.
    std::vector<std::string> rawBench(cells.size());
    util::parallelFor(first.size(), n, [&](std::size_t k) {
        std::size_t i = first[k];
        const control::Policy *policy = nullptr;
        out[i] = runRaw(cells[i].bench, cells[i].spec, rawBench[i],
                        policy, nullptr);
    });
    util::parallelFor(cells.size(), n, [&](std::size_t i) {
        if (rawBench[i].empty())
            out[i] = run(cells[i]);
        else
            out[i].metrics = vsBaseline(rawBench[i], out[i]);
    });
    return out;
}

Outcome
Runner::run(const SweepCell &cell)
{
    return run(cell.bench, cell.spec);
}

Outcome
Runner::run(const std::string &bench,
            const control::PolicySpec &spec)
{
    return run(bench, spec, nullptr);
}

Outcome
Runner::run(const std::string &bench,
            const control::PolicySpec &spec, bool *memo_hit)
{
    std::string canonBench;
    const control::Policy *policy = nullptr;
    Outcome o = runRaw(bench, spec, canonBench, policy, memo_hit);
    // Metrics are intentionally outside the memo: they derive from
    // two cached raw outcomes and stay correct however either one
    // got here.
    if (policy->relativeToBaseline())
        o.metrics = vsBaseline(canonBench, o);
    return o;
}

Outcome
Runner::runRaw(const std::string &bench,
               const control::PolicySpec &spec, std::string &canonBench,
               const control::Policy *&policy, bool *memo_hit)
{
    control::PolicySpec canon;
    std::string key = resolve(bench, spec, canon, canonBench, policy);
    // Policies see the canonical bench spec, so their own
    // makeBenchmark()/evaluate() calls resolve to the same cells.
    bool computed = false;
    Outcome o = memoize(
        key, [&] { return policy->run(canonBench, canon, ctx); },
        &computed);
    if (memo_hit)
        *memo_hit = !computed;
    return o;
}

ChipPlan
planChipCell(const ChipCell &cell, const control::PolicyContext &ctx)
{
    ChipPlan plan;
    plan.tilePolicy = control::canonicalPolicySpec(cell.tilePolicy);
    plan.tileSpecs = chip::parseMultiSpec(cell.workload, cell.tiles);
    // Chip cells always run exact: tiles advance in global time
    // order, and a per-tile functional skip would break the shared
    // L2-port/DRAM arbitration the chip model exists to capture.
    if (ctx.sim.sampling.sampled())
        throw workload::SpecError(
            "chip cells do not support sampled simulation; run chip "
            "sweeps with --sample exact");
    plan.coord = chip::parseCoordSpec(cell.coord);

    const control::PolicyRegistry &reg =
        control::PolicyRegistry::instance();
    plan.policy = reg.find(plan.tilePolicy.policy);
    std::unique_ptr<sim::IntervalHook> probe;
    std::uint64_t probe_instrs = 0;
    if (!plan.policy->makeTileController(plan.tilePolicy, ctx, &probe,
                                         &probe_instrs)) {
        std::string capable;
        for (const control::Policy *p : reg.list()) {
            std::unique_ptr<sim::IntervalHook> h;
            std::uint64_t ni = 0;
            if (p->makeTileController(
                    control::canonicalPolicySpec(p->name()), ctx, &h,
                    &ni)) {
                if (!capable.empty())
                    capable += ", ";
                capable += p->name();
            }
        }
        throw workload::SpecError(strprintf(
            "policy '%s' cannot drive chip tiles per-tile; "
            "tile-capable policies: %s",
            plan.tilePolicy.policy.c_str(), capable.c_str()));
    }
    return plan;
}

std::vector<std::string>
Runner::resolveChip(const ChipCell &cell, ChipPlan &plan) const
{
    plan = planChipCell(cell, ctx);
    std::string multi = chip::multiSpecOf(plan.tileSpecs);
    std::string coord_part =
        plan.coord.enabled ? plan.coord.canonSpec : "coord=off";
    std::string canon = plan.tilePolicy.str();
    std::string context = plan.policy->contextKey(ctx);
    std::size_t n = plan.tileSpecs.size();
    std::vector<std::string> keys;
    for (std::size_t k = 0; k <= n; ++k) {
        std::string row = k < n ? strprintf("tile=%zu", k)
                                : std::string("tile=u");
        keys.push_back(strprintf(
            "%s|chip:tiles=%zu,%s|%s|%s|%s|%s",
            keyPrefix().c_str(), n, row.c_str(), coord_part.c_str(),
            canon.c_str(), multi.c_str(), context.c_str()));
    }
    return keys;
}

std::vector<std::string>
Runner::chipCacheKeys(const ChipCell &cell) const
{
    ChipPlan plan;
    return resolveChip(cell, plan);
}

std::vector<Outcome>
Runner::runChip(const ChipCell &cell, std::vector<bool> *row_hits)
{
    ChipPlan plan;
    std::vector<std::string> keys = resolveChip(cell, plan);
    std::size_t n = plan.tileSpecs.size();

    // Lazy whole-chip simulation shared by all N+1 row keys: the
    // first row the memo misses runs the chip, later misses of this
    // call reuse the result, and a call whose rows are all cached
    // never simulates.  A partially-cached chip (e.g. a truncated
    // CSV) recomputes the whole chip once — it is deterministic, so
    // the recomputed rows equal the cached ones.
    std::shared_ptr<chip::ChipResult> res;
    auto chipResult = [&]() -> const chip::ChipResult & {
        if (!res) {
            chip::Chip c(cfg.chip, cfg.sim, cfg.power,
                         plan.tileSpecs);
            std::vector<std::unique_ptr<sim::IntervalHook>> hooks(n);
            for (std::size_t k = 0; k < n; ++k) {
                std::uint64_t instrs = 0;
                if (!plan.policy->makeTileController(
                        plan.tilePolicy, ctx, &hooks[k], &instrs))
                    panic("policy '%s' lost its tile capability "
                          "between resolve and run",
                          plan.tilePolicy.policy.c_str());
                if (hooks[k])
                    c.setTileHook(static_cast<int>(k),
                                  hooks[k].get(), instrs);
            }
            c.setCoordinator(plan.coord);
            res = std::make_shared<chip::ChipResult>(
                c.run(ctx.productionWindow));
        }
        return *res;
    };

    std::vector<Outcome> out;
    if (row_hits)
        row_hits->clear();
    for (std::size_t k = 0; k <= n; ++k) {
        bool computed = false;
        out.push_back(memoize(keys[k], [&]() -> Outcome {
            const chip::ChipResult &r = chipResult();
            // A tile row is the tile policies' own single-core
            // mapping, so an N=1 chip row prints byte-identically to
            // the same policy's single-core resultLine — the CI
            // equivalence gate diffs exactly that.
            if (k < n)
                return control::runOutcome(r.tiles[k]);
            Outcome o;
            o.timePs = static_cast<double>(r.timePs);
            o.energyNj = r.uncoreEnergyNj;
            o.reconfigs = static_cast<double>(r.uncoreReconfigs);
            o.globalFreq = r.uncoreAvgMhz;
            return o;
        }, &computed));
        if (row_hits)
            row_hits->push_back(!computed);
    }
    return out;
}

} // namespace mcd::exp
