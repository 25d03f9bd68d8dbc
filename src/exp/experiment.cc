#include "exp/experiment.hh"

#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <thread>

#include "chip/multi.hh"
#include "sim/checkpoint.hh"
#include "util/logging.hh"
#include "util/pool.hh"
#include "util/text.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"
#include "workload/suite.hh"

namespace mcd::exp
{

namespace
{

/** Cache schema version: bump when simulation physics or the key or
 *  line format change.  v3: keys carry the canonical PolicySpec
 *  string (policy:key=value,...) instead of per-policy ad-hoc
 *  fragments.  v4: SimConfig::fastForward joined the fingerprint
 *  (energy totals differ between kernel modes in their last bits,
 *  so outcomes from the two modes must never share a cache line).
 *  v5: the bench field is the canonical WorkloadSpec string from
 *  WorkloadRegistry::canonicalize() — bare suite names are
 *  unchanged, but generated (`gen:...`) and authored (`prog:...`)
 *  workloads now cache under a canonical, parameter-complete
 *  identity.  v6: SimConfig::watchdogPs left the fingerprint — a
 *  tripped watchdog aborts the process and never produces an
 *  outcome, so the knob cannot shape a cached line, and hashing it
 *  split the cache for a pure safety setting.  The fingerprint
 *  field list is now machine-checked: tools/mcd_lint.py rule
 *  `fingerprint-complete` walks the config structs, and rule
 *  `cache-version-pin` pins the hashed-field digest to this
 *  version (tools/mcd_lint_pins.json) so any fingerprint-affecting
 *  diff must bump CACHE_VERSION.  v7: the chip::ChipConfig uncore
 *  knobs joined the fingerprint (chip sweep cells — `tile=` keys —
 *  depend on the shared L2-port/DRAM servers and the coordinator
 *  interval; single-core keys pay a one-time re-shuffle).  v8: the
 *  sim::SamplingConfig knobs joined the fingerprint and the line
 *  payload grew the two CI fields (timeCiPs, energyCiNj) — sampled
 *  and exact cells must never exchange outcomes, and sampled lines
 *  must round-trip their confidence intervals.  v9: the
 *  control::LearnedConfig training knobs joined the fingerprint
 *  (learned outcomes are a function of the frozen weights, which
 *  are a function of the training regime; learned cells trained
 *  under different windows/passes must never share cache lines).
 *  (History table: docs/ARCHITECTURE.md, layer 7.) */
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
    /** FNV-1a accumulator. */
    struct Fnv
    {
        std::uint64_t h = 1469598103934665603ULL;

        void
        bytes(const void *p, std::size_t n)
        {
            const auto *b = static_cast<const unsigned char *>(p);
            for (std::size_t i = 0; i < n; ++i)
                h = (h ^ b[i]) * 1099511628211ULL;
        }

        void
        u64(std::uint64_t v)
        {
            bytes(&v, sizeof(v));
        }

        void
        i64(long long v)
        {
            u64(static_cast<std::uint64_t>(v));
        }

        void
        f64(double v)
        {
            std::uint64_t b;
            static_assert(sizeof(b) == sizeof(v));
            std::memcpy(&b, &v, sizeof(b));
            u64(b);
        }
    };

    // Every SimConfig/PowerConfig knob, plus the profiling cap; the
    // remaining ExpConfig parameters (windows, intervals) are
    // spelled out in the cache-key text itself via the policies'
    // contextKey() fragments.  The field list is machine-checked
    // against sim/config.hh, power/power.hh and exp/experiment.hh
    // by tools/mcd_lint.py (rule `fingerprint-complete`; fields
    // deliberately left out carry an allow annotation at their
    // declaration), and its digest is pinned to CACHE_VERSION by
    // rule `cache-version-pin`.
    Fnv f;
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
    return f.h;
}

/**
 * Single writer thread owning the cache CSV: one ofstream kept open
 * for the Runner's lifetime, fed by a queue, flushed on destruction.
 * store() from any number of sweep threads just enqueues a line.  An
 * unwritable path or a mid-run write failure is reported once via
 * warn() and disables further appends (the in-memory memo still
 * works).
 */
class Runner::CacheWriter
{
  public:
    explicit CacheWriter(const std::string &path)
    {
        // The writer only ever emits pre-formatted lines
        // (outcomeToLine routes doubles through util::fmtDouble17),
        // so the stream needs no locale fiddling of its own.
        out.open(path, std::ios::app);
        if (!out) {
            warn("result cache '%s' is not writable; "
                 "outcomes will not be persisted",
                 path.c_str());
            failed = true;
            return;
        }
        thr = std::thread(&CacheWriter::run, this);
    }

    ~CacheWriter()
    {
        if (!thr.joinable())
            return;
        {
            std::lock_guard<std::mutex> l(m);
            stop = true;
        }
        cv.notify_all();
        thr.join();
        out.flush();
    }

    void
    append(std::string line)
    {
        {
            std::lock_guard<std::mutex> l(m);
            if (failed)
                return;
            q.push_back(std::move(line));
        }
        cv.notify_one();
    }

  private:
    void
    run()
    {
        std::unique_lock<std::mutex> l(m);
        for (;;) {
            cv.wait(l, [this] { return stop || !q.empty(); });
            while (!q.empty() && !failed) {
                std::string line = std::move(q.front());
                q.pop_front();
                l.unlock();
                out << line << '\n';
                bool bad = out.fail();
                l.lock();
                if (bad) {
                    warn("writing to the result cache failed; "
                         "disabling further appends");
                    failed = true;
                    q.clear();
                }
            }
            if (stop)
                return;
        }
    }

    std::ofstream out;
    std::mutex m;
    std::condition_variable cv;
    std::deque<std::string> q;
    std::thread thr;
    bool stop = false;
    bool failed = false;
};

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
    // Sampled mode: policies pull the shared per-benchmark
    // checkpoint set through the context, so every cell of a sweep
    // that runs one benchmark replays one functional walk.
    if (cfg.sim.sampling.sampled())
        ctx.checkpoints = [this](const std::string &bench) {
            return checkpointSetFor(bench);
        };
    loadCache();
    if (!cfg.cacheFile.empty())
        writer = std::make_unique<CacheWriter>(cfg.cacheFile);
}

Runner::~Runner() = default;

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
        shardFor(key).map[key] = p.get_future().share();
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

std::shared_ptr<const sim::CheckpointSet>
Runner::checkpointSetFor(const std::string &canon_bench)
{
    return checkpointSets.get(canon_bench, [&] {
        // The set's functional state points into the Program, so the
        // set keeps the whole Benchmark alive through an aliasing
        // pointer.
        auto bm = std::make_shared<workload::Benchmark>(
            workload::makeBenchmark(canon_bench));
        std::shared_ptr<const workload::Program> prog(bm, &bm->program);
        return sim::CheckpointSet::build(prog, bm->ref, cfg.sim,
                                         cfg.productionWindow);
    });
}

Runner::OnceMap<Outcome> &
Runner::shardFor(const std::string &key)
{
    // mcd-lint: allow(determinism): in-memory lock-shard selection
    // only — the hash never reaches a persisted key or a wire
    // message, so an implementation-defined std::hash is fine here.
    return shards[std::hash<std::string>{}(key) % NUM_SHARDS];
}

void
Runner::store(const std::string &key, const Outcome &o)
{
    if (writer)
        writer->append(outcomeToLine(key, o));
}

Outcome
Runner::memoize(const std::string &key,
                const std::function<Outcome()> &compute,
                bool *computed)
{
    bool owner = false;
    Outcome o = shardFor(key).get(
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
    std::vector<Outcome> out(cells.size());
    util::parallelFor(cells.size(), jobs ? jobs : cfg.jobs,
                      [&](std::size_t i) { out[i] = run(cells[i]); });
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
    control::PolicySpec canon;
    std::string canonBench;
    const control::Policy *policy = nullptr;
    std::string key = resolve(bench, spec, canon, canonBench, policy);
    // Policies see the canonical bench spec, so their own
    // makeBenchmark()/evaluate() calls resolve to the same cells.
    bool computed = false;
    Outcome o = memoize(
        key, [&] { return policy->run(canonBench, canon, ctx); },
        &computed);
    if (memo_hit)
        *memo_hit = !computed;
    // Metrics are intentionally outside the memo: they derive from
    // two cached raw outcomes and stay correct however either one
    // got here.
    if (policy->relativeToBaseline())
        o.metrics = vsBaseline(canonBench, o);
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
                    fatal("policy '%s' lost its tile capability "
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
