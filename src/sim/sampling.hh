/**
 * @file
 * SMARTS-style interval sampling configuration for the simulator
 * core: detailed probes separated by fast functional warm-up, with
 * per-run confidence intervals on the extrapolated time and energy.
 *
 * The default mode is `exact` — every instruction runs through the
 * detailed pipeline and results are byte-identical to the pre-sampling
 * simulator.  In `sampled` mode the run is tiled into intervals of
 * `intervalInstrs` instructions; the first `warmupInstrs +
 * sampleInstrs` of each interval run detailed (the probe: warm-up
 * commits are discarded, sample commits are measured), and the rest
 * of the interval advances only the functional microarchitectural
 * state (stream position, caches, branch predictor, markers) in
 * program order.  Total time and energy are then estimated as
 * measured-detailed plus mean-per-instruction times the skipped
 * count, with a 95% confidence interval over the per-interval
 * samples (see docs/SAMPLING.md for the error model).
 *
 * Every field here shapes sampled outcomes and is part of the
 * memo-cache fingerprint (`exp::configFingerprint`, CACHE_VERSION v8)
 * so cached exact and sampled results can never mix.
 */

#ifndef MCD_SIM_SAMPLING_HH
#define MCD_SIM_SAMPLING_HH

#include <algorithm>
#include <cstdint>
#include <string>

namespace mcd::sim
{

/** Simulation fidelity mode. */
enum class SamplingMode : std::uint8_t
{
    Exact = 0,   ///< detailed simulation of every instruction
    Sampled,     ///< detailed probes + functional warm-up between them
};

/**
 * Sampling knobs (`--sample SPEC` on every bench binary).
 *
 * Invariants (enforced by parseSamplingSpec): in sampled mode
 * `warmupInstrs >= 1`, `sampleInstrs >= 1` and
 * `warmupInstrs + sampleInstrs < intervalInstrs`.
 */
struct SamplingConfig
{
    SamplingMode mode = SamplingMode::Exact;

    /** Virtual instructions per sampling interval (probe + skip). */
    std::uint64_t intervalInstrs = 10000;

    /** Detailed commits measured per interval (after warm-up). */
    std::uint64_t sampleInstrs = 600;

    /** Detailed commits discarded at the head of each probe so the
     *  pipeline/queues refill before measurement starts. */
    std::uint64_t warmupInstrs = 400;

    /**
     * Floor on the reported 95% CI, as a percentage of the estimate:
     * covers non-sampling bias (functional warm-up approximates
     * program-order cache/predictor state) that the between-interval
     * variance cannot see.
     */
    double ciBiasPct = 1.0;

    /** Instructions run detailed per interval. */
    std::uint64_t probeInstrs() const
    {
        return warmupInstrs + sampleInstrs;
    }

    bool sampled() const { return mode == SamplingMode::Sampled; }
};

/**
 * Deterministic per-interval probe offset: a splitmix64 hash of the
 * interval index mapped to [0, @p max_off].  Stratified (jittered)
 * probe placement breaks the aliasing between a fixed probe stride
 * and periodic program phases whose period divides `intervalInstrs`
 * — with a fixed stride the bias does not shrink as intervals are
 * added, with jitter it averages out.  Pure and seedless, so the
 * inline functional walk and `CheckpointSet::build` place probes at
 * identical positions and sampled runs stay bit-reproducible.
 */
inline std::uint64_t
sampleProbeOffset(std::uint64_t k, std::uint64_t max_off)
{
    if (max_off == 0)
        return 0;
    std::uint64_t z = (k + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z % (max_off + 1);
}

/** Where one interval's probe sits: its first virtual instruction
 *  and its detailed length (0 = no probe). */
struct ProbeSlot
{
    std::uint64_t start = 0;
    std::uint64_t len = 0;
};

/**
 * The probe of interval @p k in a run of @p window virtual
 * instructions under @p sp's geometry: at a jittered offset
 * (sampleProbeOffset) inside [k * interval, k * interval + len).
 * Past the last interval the slot is {window, 0}, a tail skip to the
 * window end.  The one placement both the inline functional walk and
 * CheckpointSet::build use, so their probes coincide.
 */
inline ProbeSlot
probeSlot(const SamplingConfig &sp, std::uint64_t k, std::uint64_t window)
{
    const std::uint64_t interval = sp.intervalInstrs;
    const std::uint64_t probe = sp.probeInstrs();
    const std::uint64_t start = k * interval;
    if (start >= window)
        return {window, 0};
    std::uint64_t len = std::min(interval, window - start);
    std::uint64_t off = std::min(sampleProbeOffset(k, interval - probe),
                                 len > probe ? len - probe : 0);
    return {start + off, std::min(probe, len - off)};
}

/**
 * Parse a `--sample` spec: `exact`, `sampled`, or
 * `sampled:interval=N,sample=N,warmup=N,ci=PCT` (any subset of keys;
 * the rest keep their defaults) — the spec engine's grammar
 * (util/spec.hh) with `exact` and `sampled` as its registered modes.
 * Throws workload::SpecError on bad grammar, unknown keys, or
 * invariant-violating values.
 */
SamplingConfig parseSamplingSpec(const std::string &text);

/**
 * Canonical spec text for @p cfg: `exact`, or
 * `sampled:interval=N,sample=N,warmup=N,ci=PCT` with every key
 * present in that order.  parse(canonical(cfg)) == cfg; the string
 * appears in `bench_throughput --json` rows and docs examples.
 * Throws workload::SpecError for a knob outside the grammar's range.
 */
std::string canonicalSamplingSpec(const SamplingConfig &cfg);

} // namespace mcd::sim

#endif // MCD_SIM_SAMPLING_HH
