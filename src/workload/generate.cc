#include "workload/generate.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"

namespace mcd::workload
{

std::vector<SpecParamInfo>
generatorParams()
{
    return {
        SpecParamInfo::count(
            "phases", 4,
            "number of top-level phase functions", 1, 32),
        SpecParamInfo::num(
            "mem", 0.3,
            "memory-boundedness: grows working sets, lowers "
            "streaming fraction", 0.0, 1.0),
        SpecParamInfo::num(
            "fp", 0.3,
            "probability a phase is floating-point-dominated", 0.0,
            1.0),
        SpecParamInfo::count(
            "depth", 2, "maximum loop-nest depth inside a phase", 1,
            3),
        SpecParamInfo::num(
            "diverge", 0.2,
            "train/reference divergence: probability a phase is "
            "input-gated to one of the two runs", 0.0, 1.0),
        SpecParamInfo::num(
            "imbalance", 0.5,
            "domain imbalance: how hard each phase's mix skews "
            "toward its dominant domain", 0.0, 1.0),
        SpecParamInfo::num(
            "refscale", 1.4,
            "reference input scale relative to training", 1.0, 8.0),
        SpecParamInfo::count(
            "seed", 1,
            "generator seed: same canonical spec, bit-identical "
            "program", 0, 9007199254740992.0),
    };
}

namespace
{

/** Linear interpolation. */
double
lerp(double a, double b, double t)
{
    return a + (b - a) * t;
}

/** One phase's sampled character. */
struct PhaseShape
{
    MixId mix = 0;
    int depth = 1;
    /** "" = always runs; otherwise the gate knob name. */
    std::string gateKnob;
    /** true: reference-only phase; false: training-only phase. */
    bool refOnly = false;
};

} // namespace

Benchmark
generate(const WorkloadSpec &spec)
{
    const int phases = static_cast<int>(spec.num("phases"));
    const double mem = spec.num("mem");
    const double fp = spec.num("fp");
    const int maxDepth = static_cast<int>(spec.num("depth"));
    const double diverge = spec.num("diverge");
    const double imbalance = spec.num("imbalance");
    const double refscale = spec.num("refscale");
    const auto seed = static_cast<std::uint64_t>(spec.num("seed"));

    // One generator drives every draw, in a fixed order, so the
    // program is a pure function of the canonical spec.
    Rng rng(seed ^ 0xA24BAED4963EE407ULL);

    ProgramBuilder b(strprintf("gen_p%d_s%llu", phases,
                               (unsigned long long)seed));

    std::vector<PhaseShape> shapes;
    shapes.reserve(static_cast<std::size_t>(phases));
    for (int p = 0; p < phases; ++p) {
        PhaseShape shape;
        const bool isFp = rng.chance(fp);
        // Memory-boundedness of this phase: the mem knob sets the
        // center, imbalance widens the per-phase spread.
        const double memB = std::clamp(
            mem + imbalance * (rng.uniform() - 0.5), 0.0, 1.0);
        // Skew: with high imbalance the dominant class fractions
        // grow, idling the other domains (what per-domain DVFS
        // exploits).
        const double skew = lerp(0.6, 1.0, imbalance);

        InstructionMix m;
        const double ld = lerp(0.16, 0.34, memB) * skew +
                          0.08 * rng.uniform();
        const double st = lerp(0.04, 0.16, memB) * skew;
        m.set(InstrClass::Load, ld).set(InstrClass::Store, st);
        if (isFp) {
            m.set(InstrClass::FpAdd,
                  (0.14 + 0.12 * rng.uniform()) * skew);
            m.set(InstrClass::FpMul,
                  (0.08 + 0.10 * rng.uniform()) * skew);
            m.branches(0.04 + 0.04 * rng.uniform(),
                       0.01 + 0.03 * rng.uniform());
        } else {
            if (rng.chance(0.4))
                m.set(InstrClass::IntMul,
                      (0.03 + 0.10 * rng.uniform()) * skew);
            m.branches(0.08 + 0.12 * rng.uniform(),
                       0.02 + 0.08 * memB);
        }
        // Working set: 8 KB (compute-bound) up to ~16 MB
        // (cache-hostile), log-scaled in memB.
        const double wsLog = lerp(13.0, 24.0, memB) +
                             1.5 * (rng.uniform() - 0.5);
        m.mem(static_cast<std::uint64_t>(std::pow(2.0, wsLog)),
              std::clamp(lerp(0.95, 0.15, memB) +
                             0.1 * (rng.uniform() - 0.5),
                         0.05, 1.0));
        m.ilp(std::clamp(0.65 - 0.3 * memB, 0.2, 0.9),
              static_cast<int>(lerp(12.0, 32.0, memB)));
        shape.mix = b.mix(m);

        shape.depth =
            1 + static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(maxDepth)));
        if (rng.chance(diverge)) {
            shape.gateKnob = strprintf("ph%d", p);
            shape.refOnly = rng.chance(0.5);
        }
        shapes.push_back(std::move(shape));
    }

    // Phase bodies: a loop nest `depth` deep over one block, with
    // per-level trip counts and block sizes drawn once each.
    for (int p = 0; p < phases; ++p) {
        const PhaseShape &shape =
            shapes[static_cast<std::size_t>(p)];
        b.func(strprintf("phase%d", p));
        const std::uint32_t count =
            80 + static_cast<std::uint32_t>(rng.below(220));
        std::vector<double> trips;
        for (int d = 0; d < shape.depth; ++d)
            trips.push_back(
                4.0 + static_cast<double>(rng.below(28)));
        std::function<void(int)> nest = [&](int d) {
            if (d == shape.depth) {
                b.block(shape.mix, count);
                return;
            }
            // Outermost level scales with the input set; inner
            // levels are fixed-trip kernels.
            b.loop(trips[static_cast<std::size_t>(d)],
                   d == 0 ? 0.7 : 0.0, [&] { nest(d + 1); });
        };
        nest(0);
    }

    // main: an input-scaled outer loop visiting every phase;
    // diverging phases are guarded by their gate knob.
    const double iters = 3.0 + static_cast<double>(rng.below(6));
    b.func("main");
    b.loop(iters, 1.0, [&] {
        for (int p = 0; p < phases; ++p) {
            const PhaseShape &shape =
                shapes[static_cast<std::size_t>(p)];
            b.call(strprintf("phase%d", p), 0, 1.0,
                   shape.gateKnob);
        }
    });

    Benchmark bm;
    bm.program = b.build("main", seed ^ 0x94D049BB133111EBULL);
    bm.train.name = "train";
    bm.train.seed = rng.next() >> 12;
    bm.train.scale = 1.0;
    bm.ref.name = "ref";
    bm.ref.seed = rng.next() >> 12;
    bm.ref.scale = refscale;
    for (const PhaseShape &shape : shapes) {
        if (shape.gateKnob.empty())
            continue;
        // The gated phase mostly runs in one input set only — the
        // paper's mpeg2/vpr situation where training coverage of
        // the reference call tree is partial.
        const double rare = 0.04;
        bm.train.with(shape.gateKnob,
                      shape.refOnly ? rare : 1.0);
        bm.ref.with(shape.gateKnob, shape.refOnly ? 1.0 : rare);
    }
    return bm;
}

} // namespace mcd::workload
