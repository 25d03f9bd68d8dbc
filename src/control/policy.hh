/**
 * @file
 * The open policy API: every reconfiguration strategy the harness
 * can run — the paper's five (baseline, profile, off-line oracle,
 * on-line attack/decay, global DVS) and any future controller — is a
 * `control::Policy` subclass registered with the `PolicyRegistry`.
 *
 * A policy is addressed by a `PolicySpec`, a parsed/printable string
 * of the form
 *
 *     name[:key=value[,key=value...]]
 *
 * e.g. `profile:mode=LFCP,d=5`, `online:aggr=1.5`, `global`.  Specs
 * canonicalize against the policy's parameter schema (unset
 * parameters take their documented schema defaults, values are
 * reformatted, parameters are put in schema order), and the
 * canonical string is the single source of truth for memo/CSV cache
 * keys, CLI selection (`--policy <spec>`) and sweep construction.
 *
 * Adding a policy is a one-file affair: subclass `Policy` in a new
 * translation unit under `src/control/policies/`, register it with
 * `MCD_REGISTER_POLICY(...)`, and list the file in
 * `src/control/CMakeLists.txt`.  No changes to `exp/` or `bench/`
 * are needed — the registry makes it selectable in every bench
 * binary and in every sweep like any built-in.
 */

#ifndef MCD_CONTROL_POLICY_HH
#define MCD_CONTROL_POLICY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "control/learned.hh"
#include "core/calltree.hh"
#include "power/power.hh"
#include "sim/config.hh"
#include "sim/trace.hh"
#include "util/stats.hh"
#include "util/spec.hh"

namespace mcd::sim
{
class CheckpointSet;
} // namespace mcd::sim

namespace mcd::control
{

/**
 * Result of one policy run on one benchmark.  Raw time/energy plus
 * per-policy diagnostics; `metrics` (always relative to the MCD
 * baseline, Section 4.1) is filled in by the harness after the raw
 * outcome is computed or served from cache.
 */
struct Outcome
{
    double timePs = 0.0;
    double energyNj = 0.0;
    Metrics metrics;  ///< vs the MCD baseline
    double reconfigs = 0.0;
    double overheadCycles = 0.0;
    double feCycles = 0.0;
    // profile-policy extras
    double dynReconfigPoints = 0.0;
    double dynInstrPoints = 0.0;
    double staticReconfigPoints = 0.0;
    double staticInstrPoints = 0.0;
    double tableBytes = 0.0;
    // global-policy extras
    double globalFreq = 0.0;
    // Sampled-simulation extras (sim/sampling.hh): 95% confidence
    // half-widths of timePs/energyNj.  Both 0 in exact mode — and
    // exact/sampled cells can never swap cache lines anyway, because
    // every SamplingConfig field joins the config fingerprint.
    double timeCiPs = 0.0;
    double energyCiNj = 0.0;
};

/**
 * The Outcome fields every run reports: time, energy,
 * reconfigurations and (sampled mode) the confidence half-widths.
 * Policies and chip tile rows build their extras on top.
 */
inline Outcome
runOutcome(const sim::RunResult &r)
{
    Outcome o;
    o.timePs = static_cast<double>(r.timePs);
    o.energyNj = r.chipEnergyNj;
    o.reconfigs = static_cast<double>(r.reconfigs);
    o.timeCiPs = static_cast<double>(r.timeCiPs);
    o.energyCiNj = r.energyCiNj;
    return o;
}

/** A policy schema entry (util/spec.hh). */
using ParamInfo = util::SpecParamInfo;

/** The value type of `mode` parameters: any parseContextMode()
 *  spelling, canonically the compact name (LFCP, LFP, ..., F). */
extern const util::SpecTextType CONTEXT_MODE;

/** The paper's default slowdown threshold d (percent), shared by
 *  every policy schema that takes a `d` parameter. */
constexpr double DEFAULT_SLOWDOWN_PCT = 5.0;

class Policy;

/**
 * A parsed policy selection: registry name plus key=value
 * parameters.  Build programmatically with `of()`/`set()` or from
 * text with `parseSpec()`; print with `str()`.
 *
 * A spec becomes *canonical* once validated against its policy's
 * schema (see `canonicalPolicySpec()`): every schema parameter
 * present in schema order with a canonically formatted value and the
 * typed value cached.  parse -> print -> parse of a canonical spec is
 * the identity, and the canonical string is used verbatim in cache
 * keys.
 */
struct PolicySpec
{
    std::string policy;
    util::SpecParams params;

    /** Start a spec for the named policy. */
    static PolicySpec
    of(std::string policy_name)
    {
        PolicySpec s;
        s.policy = std::move(policy_name);
        return s;
    }

    /** Set a raw textual parameter (overwrites an existing key). */
    PolicySpec &
    set(const std::string &key, const std::string &value)
    {
        params.set(key, value);
        return *this;
    }
    /** Set a numeric parameter (canonical 3-digit fixed format). */
    PolicySpec &
    set(const std::string &key, double value)
    {
        params.set(key, value);
        return *this;
    }
    /** Set a context-mode parameter (canonical compact name). */
    PolicySpec &set(const std::string &key, core::ContextMode mode);

    /** The spec as text, `name:key=value,...` (params as stored). */
    std::string str() const { return params.str(policy); }

    /** Typed accessors; throw SpecError if the key is absent (call
     *  only on canonical specs). */
    double num(const std::string &key) const { return params.at(key).num; }
    core::ContextMode mode(const std::string &key) const;

    /** Pointer to a parameter by name, or nullptr. */
    const util::SpecParam *
    find(const std::string &key) const
    {
        return params.find(key);
    }
};

/**
 * Parse `name[:key=value,...]` into @p out (syntax only — the
 * registry does semantic validation).  On failure returns false and
 * sets @p err to a human-readable message.
 */
bool parseSpec(const std::string &text, PolicySpec &out,
               std::string &err);

/**
 * Parse and canonicalize @p text against the registry — the throwing
 * policy-spec entry point, mirroring workload::canonicalWorkloadSpec.
 * Returns the canonical spec or throws workload::SpecError (bad
 * grammar, unknown policy or parameter, bad value).
 */
PolicySpec canonicalPolicySpec(const std::string &text);

/** Canonicalize an already parsed @p spec; throws
 *  workload::SpecError. */
PolicySpec canonicalPolicySpec(PolicySpec spec);

/**
 * What a policy run may use: the simulator/power configurations, the
 * harness windows, a recursive evaluator for outcomes of *other*
 * specs on the same harness (memoized, thread-safe), which is how
 * cross-policy dependencies are expressed — e.g. global DVS matches
 * the off-line oracle's run time via `evaluate(bench, offline spec)`
 * — and a store for artifacts several cells derive alike.
 */
struct PolicyContext
{
    sim::SimConfig sim;
    power::PowerConfig power;
    /** Production-run window (instructions). */
    std::uint64_t productionWindow = 150'000;
    /** Analysis-run window for profile-style pipelines. */
    std::uint64_t analysisWindow = 150'000;
    /** Profiling cap for phase-1 functional runs. */
    std::uint64_t profileMaxInstrs = 4'000'000;
    /** Off-line oracle reconfiguration interval (instructions). */
    std::uint64_t offlineInterval = 10'000;
    /** Training regime for the `learned` policy (fingerprinted on
     *  the harness side under prefix `ln`). */
    LearnedConfig learned;
    /** Memoized evaluation of another (bench, spec) cell. */
    std::function<Outcome(const std::string &bench,
                          const PolicySpec &spec)>
        evaluate;
    /**
     * Compute-once store for derived artifacts: returns the value
     * stored under @p key, calling @p build only if no request did
     * or does.  An empty @p build only looks: it returns the value if
     * a build of @p key has finished, else nullptr, and never builds
     * or waits.  The harness keeps the values in memory while it
     * keeps its outcomes; a key names one context's artifact, so it
     * never spells out the context's knobs.  Unset: every request
     * builds.  Policies reach it through `sharedArtifact()` and
     * `finishedArtifact()`.
     */
    std::function<std::shared_ptr<const void>(
        const std::string &key,
        const std::function<std::shared_ptr<const void>()> &build)>
        artifacts;
};

/**
 * The artifact stored under @p key in @p ctx's store, built by
 * @p build on the first request (or on every request when the
 * context has no store).  A key's first `|`-separated field names
 * the artifact kind, and every kind has one type: `train|<tree
 * mode>|<bench>` a core::TrainedProfile (core::treeMode),
 * `offline|<bench>` a control::OfflineAnalysis, `ckpt|<bench>` a
 * sim::CheckpointSet.
 */
template <class T>
std::shared_ptr<const T>
sharedArtifact(const PolicyContext &ctx, const std::string &key,
               const std::function<std::shared_ptr<const T>()> &build)
{
    if (!ctx.artifacts)
        return build();
    return std::static_pointer_cast<const T>(ctx.artifacts(
        key, [&]() -> std::shared_ptr<const void> { return build(); }));
}

/**
 * The artifact stored under @p key in @p ctx's store if its build has
 * finished, else nullptr (also when the context has no store).  It
 * never builds and never waits on a build in flight, so a cell that
 * can do without the artifact never pays for it.
 */
template <class T>
std::shared_ptr<const T>
finishedArtifact(const PolicyContext &ctx, const std::string &key)
{
    if (!ctx.artifacts)
        return nullptr;
    return std::static_pointer_cast<const T>(ctx.artifacts(key, {}));
}

/**
 * Sampled mode: the shared checkpoint set for production runs of the
 * canonical @p bench at `ctx.productionWindow` (sim/checkpoint.hh —
 * one functional walk serves every cell of a sweep on the same
 * benchmark).  nullptr in exact mode.
 */
std::shared_ptr<const sim::CheckpointSet>
checkpointsFor(const PolicyContext &ctx, const std::string &bench);

/**
 * Abstract reconfiguration policy: a registry entry (name,
 * description, parameter schema — see util::SpecKind) that can run.
 * Implementations are stateless const singletons owned by the
 * registry; all run state lives on the stack of `run()`, which may be
 * called concurrently from any number of sweep threads.
 */
class Policy : public util::SpecKind
{
  public:
    /**
     * Whether `Outcome::metrics` should be computed against the MCD
     * baseline after the raw run (everything but the baseline
     * itself).
     */
    virtual bool relativeToBaseline() const { return true; }

    /**
     * The harness-configuration fragment of this policy's cache key:
     * every `PolicyContext` knob (beyond Sim/PowerConfig, which are
     * fingerprinted separately) that shapes the outcome.  The default
     * covers the production window only.
     */
    virtual std::string contextKey(const PolicyContext &ctx) const;

    /**
     * Run the policy on @p bench.  @p spec is canonical (every
     * schema parameter present and typed).  Returns the raw outcome;
     * `metrics` is filled in by the harness.
     */
    virtual Outcome run(const std::string &bench,
                        const PolicySpec &spec,
                        const PolicyContext &ctx) const = 0;

    /**
     * Per-tile capability: build a fresh interval controller that
     * drives one tile of a `chip::Chip` under this policy.  Policies
     * that can run per-tile return true and fill @p hook (may stay
     * null for policies that need no callbacks, e.g. the max-speed
     * baseline) and @p interval_instrs (its firing interval; 0 with
     * a null hook).  The default is false: the chip layer rejects
     * the spec with a message naming the tile-capable policies.
     * Each call must return an independent controller — tiles do not
     * share state.
     */
    virtual bool
    makeTileController(const PolicySpec &, const PolicyContext &,
                       std::unique_ptr<sim::IntervalHook> *,
                       std::uint64_t *) const
    {
        return false;
    }
};

/**
 * Global name -> Policy table over the spec engine (util/spec.hh).
 * Policies register themselves at static-initialization time via
 * `MCD_REGISTER_POLICY`; lookups are thread-safe.
 */
class PolicyRegistry
{
  public:
    static PolicyRegistry &instance();

    /** Register @p p; panics on a duplicate name. */
    void add(std::unique_ptr<const Policy> p);

    /** The policy named @p name, or nullptr. */
    const Policy *find(const std::string &name) const;

    /** Every registered policy, sorted by name. */
    std::vector<const Policy *> list() const;

    /**
     * canonicalPolicySpec() with a bool+message result: on failure
     * returns false, sets @p err and leaves @p spec untouched.
     */
    bool canonicalize(PolicySpec &spec, std::string &err) const;

  private:
    PolicyRegistry() = default;
};

/** Registers a policy instance at static-initialization time. */
struct PolicyRegistrar
{
    explicit PolicyRegistrar(std::unique_ptr<const Policy> p);
};

/**
 * Place at namespace scope in a policy's translation unit.  The
 * policy objects are linked into every executable unconditionally
 * (see src/control/CMakeLists.txt), so registration cannot be
 * dead-stripped.
 */
#define MCD_REGISTER_POLICY(cls)                                     \
    static const ::mcd::control::PolicyRegistrar                     \
        mcdPolicyRegistrar_##cls { std::make_unique<cls>() }

/**
 * Human-readable listing of every registered policy — name,
 * description, and each parameter with its type and default — one
 * definition shared by `--list-policies` and the explorer example.
 */
std::string describePolicies();

/** Parse a context mode from its compact ("LFCP"), printable
 *  ("L+F+C+P") or lower-case form.  Returns false on no match. */
bool parseContextMode(const std::string &text, core::ContextMode &m);

/** Compact canonical context-mode name ("LFCP", ..., "F"). */
const char *compactModeName(core::ContextMode m);

} // namespace mcd::control

#endif // MCD_CONTROL_POLICY_HH
