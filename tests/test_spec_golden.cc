/**
 * @file
 * Golden pins for the spec surface: for a fixed corpus per grammar
 * (policy, workload, sampling) the exact canonical string or the
 * exact error message, plus the full `--list-policies` and
 * `--list-workloads` text.  Canonical strings are cache keys and wire
 * labels, and the messages are the CLI's and the server's BAD_SPEC
 * replies, so any drift here is a user-visible change.  Sampling
 * errors pin only that the spec is refused.
 */

#include <gtest/gtest.h>

#include <string>

#include "control/policy.hh"
#include "sim/sampling.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"

using namespace mcd;

namespace
{

/** One corpus entry: input text -> canonical text, or "error: " and
 *  the message. */
struct Golden
{
    const char *input;
    const char *expect;
};

std::string
policyResult(const std::string &text)
{
    control::PolicySpec spec;
    std::string err;
    if (!control::parseSpec(text, spec, err) ||
        !control::PolicyRegistry::instance().canonicalize(spec, err))
        return "error: " + err;
    return spec.str();
}

std::string
workloadResult(const std::string &text)
{
    try {
        return workload::canonicalWorkloadSpec(text);
    } catch (const workload::SpecError &e) {
        return std::string("error: ") + e.what();
    }
}

std::string
samplingResult(const std::string &text)
{
    try {
        return sim::canonicalSamplingSpec(sim::parseSamplingSpec(text));
    } catch (const workload::SpecError &) {
        return "error";
    }
}

} // namespace

TEST(SpecGolden, PolicySpecs)
{
    const Golden cases[] = {
        {"baseline",
         "baseline"},
        {"profile",
         "profile:mode=LF,d=5.000"},
        {"profile:d=5,mode=LFCP",
         "profile:mode=LFCP,d=5.000"},
        {"profile:mode=lfcp",
         "profile:mode=LFCP,d=5.000"},
        {"profile:mode=L+F+C+P,d=10",
         "profile:mode=LFCP,d=10.000"},
        {"profile:mode=f,d=0",
         "profile:mode=F,d=0.000"},
        {"offline:d=10",
         "offline:d=10.000"},
        {"offline:d=1e3",
         "offline:d=1000.000"},
        {"online:aggr=1.5",
         "online:aggr=1.500"},
        {"global",
         "global:d=5.000"},
        {"global:d=2.0004",
         "global:d=2.000"},
        {"hybrid",
         "hybrid:mode=LF,d=5.000,guard=0.100,interval=2000.000"},
        {"hybrid:guard=0.05,d=10",
         "hybrid:mode=LF,d=10.000,guard=0.050,interval=2000.000"},
        {"hybrid:interval=1e12",
         "hybrid:mode=LF,d=5.000,guard=0.100,interval=1000000000000.000"},
        {"learned",
         "learned:seed=1.000,lr=0.080,explore=0.250,interval=2000.000"},
        {"learned:seed=3,lr=0.1",
         "learned:seed=3.000,lr=0.100,explore=0.250,interval=2000.000"},
        {"learned:explore=0.5,interval=1000,seed=2",
         "learned:seed=2.000,lr=0.080,explore=0.500,interval=1000.000"},
        {"nonesuch",
         "error: unknown policy 'nonesuch' (known: baseline global "
         "hybrid learned offline online profile)"},
        {"offline:x=1",
         "error: policy 'offline' has no parameter 'x' (takes: d)"},
        {"baseline:d=1",
         "error: policy 'baseline' has no parameter 'd' (takes none)"},
        {"offline:d=abc",
         "error: policy 'offline' parameter 'd': 'abc' is not a number"},
        {"offline:d=nan",
         "error: policy 'offline' parameter 'd': nan is out of range [0, "
         "1000]"},
        {"online:aggr=1e400",
         "error: policy 'online' parameter 'aggr': '1e400' is not a number"},
        {"profile:mode=XY",
         "error: policy 'profile' parameter 'mode': 'XY' is not a context "
         "mode (LFCP|LFP|FCP|FP|LF|F)"},
        {"profile:mode=",
         "error: bad policy spec 'profile:mode=': parameter 'mode=' is not "
         "of the form key=value"},
        {"offline:d",
         "error: bad policy spec 'offline:d': parameter 'd' is not of the "
         "form key=value"},
        {"offline:d=1,d=2",
         "error: bad policy spec 'offline:d=1,d=2': parameter 'd' given "
         "twice"},
        {"offline:=1",
         "error: bad policy spec 'offline:=1': parameter '=1' is not of the "
         "form key=value"},
        {":d=1",
         "error: bad policy spec ':d=1': expected name[:key=value,...] with "
         "a [a-z0-9_-]+ name"},
        {"hybrid:interval=0",
         "error: policy 'hybrid' parameter 'interval': 0 is out of range [1,"
         " 1e+12]"},
        {"hybrid:interval=-1",
         "error: policy 'hybrid' parameter 'interval': -1 is out of range "
         "[1, 1e+12]"},
        {"hybrid:interval=2000.4",
         "error: policy 'hybrid' parameter 'interval': '2000.4' must be an "
         "integer"},
        {"hybrid:guard=1.5",
         "error: policy 'hybrid' parameter 'guard': 1.5 is out of range [0, "
         "1]"},
        {"offline:d=-3",
         "error: policy 'offline' parameter 'd': -3 is out of range [0, "
         "1000]"},
        {"learned:seed=1.5",
         "error: policy 'learned' parameter 'seed': '1.5' must be an integer"},
        {"learned:lr=0",
         "error: policy 'learned' parameter 'lr': 0 is out of range [1e-06, "
         "10]"},
        {"Offline",
         "error: bad policy spec 'Offline': expected name[:key=value,...] "
         "with a [a-z0-9_-]+ name"},
        {"",
         "error: bad policy spec '': expected name[:key=value,...] with a "
         "[a-z0-9_-]+ name"},
    };
    for (const Golden &c : cases)
        EXPECT_EQ(policyResult(c.input), c.expect) << c.input;
}

TEST(SpecGolden, WorkloadSpecs)
{
    const Golden cases[] = {
        {"gsm_decode",
         "gsm_decode"},
        {"gzip",
         "gzip"},
        {"mcf",
         "mcf"},
        {"gen",
         "gen:phases=4,mem=0.300,fp=0.300,depth=2,diverge=0.200,"
         "imbalance=0.500,refscale=1.400,seed=1"},
        {"gen:phases=4,mem=0.4,seed=7",
         "gen:phases=4,mem=0.400,fp=0.300,depth=2,diverge=0.200,"
         "imbalance=0.500,refscale=1.400,seed=7"},
        {"gen:seed=7,mem=0.40,phases=4",
         "gen:phases=4,mem=0.400,fp=0.300,depth=2,diverge=0.200,"
         "imbalance=0.500,refscale=1.400,seed=7"},
        {"gen:phases=2,depth=3,imbalance=0.8,refscale=2.0",
         "gen:phases=2,mem=0.300,fp=0.300,depth=3,diverge=0.200,"
         "imbalance=0.800,refscale=2.000,seed=1"},
        {"gen:seed=9007199254740992",
         "gen:phases=4,mem=0.300,fp=0.300,depth=2,diverge=0.200,"
         "imbalance=0.500,refscale=1.400,seed=9007199254740992"},
        {"gen:phases=32,fp=1",
         "gen:phases=32,mem=0.300,fp=1.000,depth=2,diverge=0.200,"
         "imbalance=0.500,refscale=1.400,seed=1"},
        {"prog:name=solver,hash=1f2e3d4c5b6a7988",
         "prog:name=solver,hash=1f2e3d4c5b6a7988"},
        {"prog:hash=ab,name=x",
         "prog:name=x,hash=ab"},
        {"doom",
         "error: unknown workload 'doom' (known: adpcm_decode adpcm_encode "
         "applu art epic_decode epic_encode equake g721_decode g721_encode "
         "gen gsm_decode gsm_encode gzip jpeg_compress jpeg_decompress mcf "
         "mpeg2_decode mpeg2_encode prog swim vpr)"},
        {"gen:warp=9",
         "error: workload 'gen' has no parameter 'warp' (takes: phases mem "
         "fp depth diverge imbalance refscale seed)"},
        {"gzip:level=9",
         "error: workload 'gzip' has no parameter 'level' (takes none)"},
        {"gen:mem=1.5",
         "error: workload 'gen' parameter 'mem': 1.5 is out of range [0, 1]"},
        {"gen:phases=2.5",
         "error: workload 'gen' parameter 'phases': '2.5' must be an integer"},
        {"gen:phases=0",
         "error: workload 'gen' parameter 'phases': 0 is out of range [1, "
         "32]"},
        {"gen:mem=abc",
         "error: workload 'gen' parameter 'mem': 'abc' is not a number"},
        {"gen:seed=-1",
         "error: workload 'gen' parameter 'seed': -1 is out of range [0, "
         "9.0072e+15]"},
        {"gen:seed=1e300",
         "error: workload 'gen' parameter 'seed': 1e+300 is out of range [0,"
         " 9.0072e+15]"},
        {"prog",
         "error: workload 'prog' parameter 'name' is required"},
        {"prog:name=x",
         "error: workload 'prog' parameter 'hash' is required"},
        {"prog:name=a/b,hash=1",
         "error: workload 'prog' parameter 'name': 'a/b' is not a "
         "[A-Za-z0-9_.-]+ value"},
        {"Bad Name",
         "error: bad workload spec 'Bad Name': expected name[:key=value,"
         "...] with a [a-z0-9_-]+ name"},
        {"gen:phases",
         "error: bad workload spec 'gen:phases': parameter 'phases' is not "
         "of the form key=value"},
        {"gen:=4",
         "error: bad workload spec 'gen:=4': parameter '=4' is not of the "
         "form key=value"},
        {"gen:seed=1,seed=2",
         "error: bad workload spec 'gen:seed=1,seed=2': parameter 'seed' "
         "given twice"},
        {"",
         "error: bad workload spec '': expected name[:key=value,...] with a "
         "[a-z0-9_-]+ name"},
    };
    for (const Golden &c : cases)
        EXPECT_EQ(workloadResult(c.input), c.expect) << c.input;
}

TEST(SpecGolden, SamplingSpecs)
{
    const Golden cases[] = {
        {"exact",
         "exact"},
        {"sampled",
         "sampled:interval=10000,sample=600,warmup=400,ci=1.000"},
        {"sampled:warmup=50,interval=900,ci=2.5,sample=100",
         "sampled:interval=900,sample=100,warmup=50,ci=2.500"},
        {"sampled:interval=1e3,sample=100,warmup=100",
         "sampled:interval=1000,sample=100,warmup=100,ci=1.000"},
        {"sampled:ci=0",
         "sampled:interval=10000,sample=600,warmup=400,ci=0.000"},
        {"",
         "error"},
        {"fast",
         "error"},
        {"exact:interval=100",
         "error"},
        {"sampled:probes=3",
         "error"},
        {"sampled:interval=abc",
         "error"},
        {"sampled:interval=0",
         "error"},
        {"sampled:ci=101",
         "error"},
        {"sampled:warmup=0",
         "error"},
        {"sampled:sample=1.5",
         "error"},
        {"sampled:interval=1000,sample=900,warmup=100",
         "error"},
        {"Sampled",
         "error"},
    };
    for (const Golden &c : cases)
        EXPECT_EQ(samplingResult(c.input), c.expect) << c.input;
}

TEST(SpecGolden, PolicyListing)
{
    EXPECT_EQ(control::describePolicies(),
    "  baseline   MCD baseline, all domains at maximum frequency\n"
    "  global     chip-wide DVS, all four domains at one frequency, "
    "matched to the off-line oracle's run time\n"
    "      d=<number> (default 5.000): slowdown threshold of the off-line "
    "run whose time is matched\n"
    "  hybrid     profile pipeline with an on-line IPC guard that overrides "
    "collapsing intervals\n"
    "      mode=<mode> (default LF): calling-context definition "
    "(LFCP|LFP|FCP|FP|LF|F)\n"
    "      d=<number> (default 5.000): slowdown threshold, percent of "
    "baseline run time\n"
    "      guard=<number> (default 0.100): IPC drop, as a fraction of the "
    "best recent interval IPC, that triggers a full-speed override\n"
    "      interval=<number> (default 2000.000): guard evaluation interval, "
    "committed instructions\n"
    "  learned    per-domain linear regressor/bandit trained on interval "
    "stats from the training input, frozen for production\n"
    "      seed=<number> (default 1.000): exploration RNG seed (training is "
    "a pure function of it)\n"
    "      lr=<number> (default 0.080): SGD learning rate for the per-domain "
    "regressors\n"
    "      explore=<number> (default 0.250): probability a training interval "
    "explores a random frequency instead of exploiting the model\n"
    "      interval=<number> (default 2000.000): control interval "
    "(instructions) for both training and production\n"
    "  offline    off-line oracle: perfect-knowledge per-interval schedule, "
    "the profile method's upper bound\n"
    "      d=<number> (default 5.000): slowdown threshold, percent of "
    "baseline run time\n"
    "  online     on-line attack/decay controller reacting to queue "
    "utilization (Semeraro et al., MICRO 2002)\n"
    "      aggr=<number> (default 1.000): aggressiveness: scales decay, "
    "relaxes the IPC guard (1.0 = the paper's operating point)\n"
    "  profile    profile-driven pipeline: train on the training input, run "
    "production instrumented\n"
    "      mode=<mode> (default LF): calling-context definition "
    "(LFCP|LFP|FCP|FP|LF|F)\n"
    "      d=<number> (default 5.000): slowdown threshold, percent of "
    "baseline run time\n");
}

TEST(SpecGolden, WorkloadListing)
{
    EXPECT_EQ(workload::describeWorkloads(),
    "  adpcm_decode   MediaBench adpcm decode: tiny-footprint integer DSP "
    "sample loop\n"
    "  adpcm_encode   MediaBench adpcm encode: tiny-footprint integer DSP "
    "sample loop\n"
    "  applu          SPEC applu: SSOR solver, multiple loop nests per "
    "subroutine\n"
    "  art            SPEC art: neural-net matching, one loop with seven "
    "sub-loops\n"
    "  epic_decode    MediaBench epic decode: FP pyramid reconstruction + "
    "integer write-out\n"
    "  epic_encode    MediaBench epic encode: internal_filter from six call "
    "sites (context-sensitive)\n"
    "  equake         SPEC equake: sparse matrix-vector product, stable call "
    "tree\n"
    "  g721_decode    MediaBench g721 decode: one dominant predictor-update "
    "kernel\n"
    "  g721_encode    MediaBench g721 encode: one dominant predictor-update "
    "kernel\n"
    "  gen            seeded procedural generator: phase structure, domain "
    "imbalance, train/ref divergence\n"
    "      phases=<number> (default 4): number of top-level phase functions\n"
    "      mem=<number> (default 0.300): memory-boundedness: grows working "
    "sets, lowers streaming fraction\n"
    "      fp=<number> (default 0.300): probability a phase is "
    "floating-point-dominated\n"
    "      depth=<number> (default 2): maximum loop-nest depth inside a "
    "phase\n"
    "      diverge=<number> (default 0.200): train/reference divergence: "
    "probability a phase is input-gated to one of the two runs\n"
    "      imbalance=<number> (default 0.500): domain imbalance: how hard "
    "each phase's mix skews toward its dominant domain\n"
    "      refscale=<number> (default 1.400): reference input scale relative "
    "to training\n"
    "      seed=<number> (default 1): generator seed: same canonical spec, "
    "bit-identical program\n"
    "  gsm_decode     MediaBench gsm decode: per-frame LPC/LTP filter phases\n"
    "  gsm_encode     MediaBench gsm encode: per-frame LPC/LTP filter phases\n"
    "  gzip           SPEC gzip: deflate with longest_match search, rare "
    "side paths\n"
    "  jpeg_compress  MediaBench jpeg compress: DCT/quantize/entropy block "
    "pipeline\n"
    "  jpeg_decompress MediaBench jpeg decompress: entropy/dequantize/IDCT "
    "block pipeline\n"
    "  mcf            SPEC mcf: pointer-chasing network simplex, memory "
    "bound\n"
    "  mpeg2_decode   MediaBench mpeg2 decode: B-frame paths unseen during "
    "training\n"
    "  mpeg2_encode   MediaBench mpeg2 encode: motion-estimation loop nests "
    "dominate\n"
    "  prog           authored program loaded via --workload @file "
    "(content-addressed handle; see docs/WORKLOADS.md)\n"
    "      name=<string> (required): program name from the text's program: "
    "section\n"
    "      hash=<string> (required): 16-hex fnv1a of the canonical program "
    "text\n"
    "  swim           SPEC swim: FP shallow-water stencils, grid-dependent "
    "node set\n"
    "  vpr            SPEC vpr: training places, reference routes (coverage "
    "~0.1)\n");
}
