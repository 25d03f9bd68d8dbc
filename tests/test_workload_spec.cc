/**
 * @file
 * The open workload subsystem: spec grammar and registry
 * canonicalization, the authoring text format's round-trip
 * contract, hard errors on unknown names/keys, and the
 * authored-program handle path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <utility>

#include "util/text.hh"
#include "workload/author.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"
#include "workload/stream.hh"
#include "workload/suite.hh"

using namespace mcd::workload;

// ---------------------------------------------------------------- //
// WorkloadSpec grammar                                             //
// ---------------------------------------------------------------- //

TEST(WorkloadSpec, ParsePrintRoundTrip)
{
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(
        parseWorkloadSpec("gen:phases=4,mem=0.4,seed=7", spec, err))
        << err;
    EXPECT_EQ(spec.name, "gen");
    EXPECT_EQ(spec.str(), "gen:phases=4,mem=0.4,seed=7");
    ASSERT_NE(spec.find("mem"), nullptr);
    EXPECT_DOUBLE_EQ(spec.find("mem")->num, 0.4);
}

TEST(WorkloadSpec, GrammarErrors)
{
    WorkloadSpec spec;
    std::string err;
    EXPECT_FALSE(parseWorkloadSpec("", spec, err));
    EXPECT_FALSE(parseWorkloadSpec("Bad Name", spec, err));
    EXPECT_FALSE(parseWorkloadSpec("gen:phases", spec, err));
    EXPECT_FALSE(parseWorkloadSpec("gen:=4", spec, err));
    EXPECT_FALSE(
        parseWorkloadSpec("gen:seed=1,seed=2", spec, err));
    EXPECT_NE(err.find("given twice"), std::string::npos);
}

// ---------------------------------------------------------------- //
// Registry canonicalization                                        //
// ---------------------------------------------------------------- //

TEST(WorkloadRegistry, SuiteNamesCanonicalizeToThemselves)
{
    // Load-bearing for cache compatibility: the bench field of a
    // v6 cache key for a suite benchmark is the bare name, exactly
    // as in v4/v5.
    for (const std::string &name : suiteNames())
        EXPECT_EQ(canonicalWorkloadSpec(name), name);
}

TEST(WorkloadRegistry, GenCanonicalFormIsPinned)
{
    // Canonical form: schema order, defaults filled in, integers
    // plain, doubles 3-digit.  Pinned because it is the memo-cache
    // identity of every generated cell.
    EXPECT_EQ(canonicalWorkloadSpec("gen:phases=4,mem=0.4,seed=7"),
              "gen:phases=4,mem=0.400,fp=0.300,depth=2,"
              "diverge=0.200,imbalance=0.500,refscale=1.400,seed=7");
    // Parameter order and formatting never split a cell.
    EXPECT_EQ(canonicalWorkloadSpec("gen:seed=7,mem=0.40,phases=4"),
              canonicalWorkloadSpec("gen:phases=4,mem=0.4,seed=7"));
    // Idempotence: canonical text is a fixed point.
    std::string canon = canonicalWorkloadSpec("gen");
    EXPECT_EQ(canonicalWorkloadSpec(canon), canon);
}

TEST(WorkloadRegistry, UnknownNamesAndKeysAreHardErrors)
{
    EXPECT_THROW(canonicalWorkloadSpec("doom"), SpecError);
    try {
        canonicalWorkloadSpec("gen:warp=9");
        FAIL() << "unknown key did not throw";
    } catch (const SpecError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no parameter 'warp'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("phases"), std::string::npos) << msg;
    }
    // Range and integrality failures happen at canonicalization,
    // before anything is generated.
    EXPECT_THROW(canonicalWorkloadSpec("gen:mem=1.5"), SpecError);
    EXPECT_THROW(canonicalWorkloadSpec("gen:phases=2.5"),
                 SpecError);
    EXPECT_THROW(canonicalWorkloadSpec("gen:phases=0"), SpecError);
    // Suite benchmarks take no parameters at all.
    EXPECT_THROW(canonicalWorkloadSpec("gzip:level=9"), SpecError);
}

TEST(WorkloadRegistry, ListsSuiteGenAndProg)
{
    std::string listing = describeWorkloads();
    for (const std::string &name : suiteNames())
        EXPECT_NE(listing.find("  " + name), std::string::npos);
    EXPECT_NE(listing.find("  gen"), std::string::npos);
    EXPECT_NE(listing.find("  prog"), std::string::npos);
    EXPECT_NE(listing.find("seed=<number>"), std::string::npos);
}

// ---------------------------------------------------------------- //
// Authoring round trips                                            //
// ---------------------------------------------------------------- //

TEST(Authoring, EverySuiteBenchmarkRoundTrips)
{
    // print -> parse -> print is the identity on canonical text,
    // and the re-parsed program is behaviorally identical: same
    // stream, instruction for instruction.
    for (const std::string &name : suiteNames()) {
        Benchmark bm = makeBenchmark(name);
        std::string text = printProgram(bm);
        Benchmark back = parseProgram(text);
        EXPECT_EQ(printProgram(back), text) << name;
        EXPECT_EQ(back.program.functions.size(),
                  bm.program.functions.size());
        ASSERT_EQ(back.program.blockLayouts.size(),
                  bm.program.blockLayouts.size());
        for (std::size_t i = 0; i < bm.program.blockLayouts.size();
             ++i) {
            const auto &x = bm.program.blockLayouts[i];
            const auto &y = back.program.blockLayouts[i];
            ASSERT_EQ(x.size(), y.size()) << name << " block " << i;
            for (std::size_t j = 0; j < x.size(); ++j) {
                ASSERT_TRUE(x[j].cls == y[j].cls &&
                            x[j].dep1 == y[j].dep1 &&
                            x[j].dep2 == y[j].dep2 &&
                            x[j].takenBias == y[j].takenBias)
                    << name
                    << ": layouts must regenerate bit-identically";
            }
        }
        EXPECT_EQ(back.train.seed, bm.train.seed);
        EXPECT_EQ(back.ref.seed, bm.ref.seed);
    }
}

TEST(Authoring, RoundTrippedSuiteBenchmarkStreamsIdentically)
{
    Benchmark bm = makeBenchmark("mpeg2_decode");
    Benchmark back = parseProgram(printProgram(bm));
    Stream a(bm.program, bm.ref), b(back.program, back.ref);
    StreamItem ia, ib;
    for (int n = 0; n < 20'000; ++n) {
        bool more_a = a.next(ia), more_b = b.next(ib);
        ASSERT_EQ(more_a, more_b);
        if (!more_a)
            break;
        ASSERT_EQ(ia.kind, ib.kind);
        if (ia.kind == StreamItem::Kind::Instr) {
            ASSERT_EQ(ia.instr.pc, ib.instr.pc);
            ASSERT_EQ(ia.instr.cls, ib.instr.cls);
            ASSERT_EQ(ia.instr.addr, ib.instr.addr);
        }
    }
}

TEST(Authoring, ParseQuantizesToCanonicalPrecision)
{
    // Numeric values are quantized to the canonical 3-digit form as
    // they are read, so a program and its canonical text can never
    // disagree (the content hash addresses the behavior, not just
    // the text).
    const char *text = R"(
program: name=q, entry=main
input: set=train, seed=1, scale=1.0
input: set=ref, seed=2, scale=1.2
mix: id=k, load=0.2224999, branch=0.1
func: name=main
  loop: trips=40.1239, scale=0.6
    block: mix=k, n=100
  end
)";
    Benchmark bm = parseProgram(text);
    EXPECT_DOUBLE_EQ(bm.program.mixes[0].frac[7], 0.222);
    ASSERT_EQ(bm.program.functions[0].body[0].kind, StmtKind::Loop);
    EXPECT_DOUBLE_EQ(
        bm.program.functions[0].body[0].loop.baseTrips, 40.124);
    EXPECT_EQ(printProgram(parseProgram(printProgram(bm))),
              printProgram(bm));
}

TEST(Authoring, HardErrorsCarryLineNumbersAndWhatIsAccepted)
{
    auto expectError = [](const char *text, const char *needle) {
        try {
            parseProgram(text);
            FAIL() << "no error for: " << text;
        } catch (const SpecError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what() << "\n(wanted: " << needle << ")";
        }
    };
    const char *header = "program: name=p, entry=main\n"
                         "input: set=train, seed=1\n"
                         "input: set=ref, seed=2\n"
                         "mix: id=k, load=0.2\n";
    // Unknown section / key list what is accepted.
    expectError((std::string(header) + "bogus: a=1\n").c_str(),
                "unknown section 'bogus'");
    expectError((std::string(header) +
                 "func: name=main\n  block: mix=k, n=10, warp=9\n")
                    .c_str(),
                "has no parameter 'warp'");
    expectError("input: set=train\n", "must start with a 'program:");
    // Structural errors.
    expectError((std::string(header) +
                 "func: name=main\n  call: f=ghost\n")
                    .c_str(),
                "undefined function 'ghost'");
    expectError((std::string(header) +
                 "func: name=main\n  loop: trips=4\n"
                 "    block: mix=k, n=10\n")
                    .c_str(),
                "missing 'end'");
    expectError((std::string(header) +
                 "func: name=main\n  loop: trips=4\n  end\n")
                    .c_str(),
                "empty body");
    expectError((std::string(header) +
                 "func: name=main\n  block: mix=ghost, n=10\n")
                    .c_str(),
                "unknown mix id 'ghost'");
    expectError("program: name=p\nmix: id=k, load=0.2\n"
                "func: name=f\n  block: mix=k\n",
                "requires key 'n'");
    // Missing inputs / entry.
    expectError("program: name=p, entry=main\n"
                "func: name=main\n",
                "both 'input: set=train' and 'input: set=ref'");
    expectError("program: name=p, entry=nope\n"
                "input: set=train, seed=1\ninput: set=ref, seed=2\n"
                "mix: id=k, load=0.2\n"
                "func: name=main\n  block: mix=k, n=10\n",
                "entry function 'nope'");
}

// ---------------------------------------------------------------- //
// Canonical-text golden                                            //
// ---------------------------------------------------------------- //

namespace
{

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The docs/WORKLOADS.md worked example, verbatim. */
const char *const workedExample =
    "program: name=adpcm_encode, entry=main, seed=12345\n"
    "input: set=train, seed=11, scale=1.000\n"
    "input: set=ref, seed=12, scale=1.600\n"
    "mix: id=m0, ialu=0.000, imul=0.030, idiv=0.000, fadd=0.000, "
    "fmul=0.000, fdiv=0.000, fsqrt=0.000, load=0.220, store=0.080, "
    "branch=0.180, ws=4096, stream=0.850, stride=8, noise=0.050, "
    "short=0.550, dep=24\n"
    "mix: id=m1, ialu=0.000, imul=0.000, idiv=0.000, fadd=0.000, "
    "fmul=0.000, fdiv=0.000, fsqrt=0.000, load=0.250, store=0.150, "
    "branch=0.100, ws=8192, stream=0.900, stride=8, noise=0.030, "
    "short=0.550, dep=24\n"
    "func: name=adpcm_coder\n"
    "  block: mix=m0, n=68\n"
    "func: name=main\n"
    "  block: mix=m1, n=180\n"
    "  loop: trips=3200.000, scale=1.000\n"
    "    call: f=adpcm_coder, arg=0, guard=1.000\n"
    "  end\n"
    "  block: mix=m1, n=120\n";

/** The CI "Workload registry and CLI smoke" program, verbatim. */
const char *const ciSmokeProgram =
    "program: name=ci_smoke, entry=main\n"
    "input: set=train, seed=1, scale=1.0\n"
    "input: set=ref, seed=2, scale=1.3\n"
    "mix: id=k, load=0.3, branch=0.12, ws=2097152, stream=0.4\n"
    "func: name=main\n"
    "  loop: trips=400, scale=1.0\n"
    "    block: mix=k, n=120\n"
    "  end\n";

} // namespace

TEST(Authoring, CanonicalTextHashesArePinned)
{
    // `prog:` handles and every authored cell's cache key are
    // fnv1a64 of printProgram()'s text, so not one byte of it may
    // move.  Values generated from the implementation they pin.
    const std::pair<const char *, const char *> suite[] = {
        {"adpcm_decode", "fbd6dd426f43f91d"},
        {"adpcm_encode", "b2a13f43f3f1bc5f"},
        {"epic_decode", "70db968ad11bd145"},
        {"epic_encode", "9a486cdee7cef9ec"},
        {"g721_decode", "76a3135f4693d8e5"},
        {"g721_encode", "59c1e0ce030c0015"},
        {"gsm_decode", "0d0e7d1ddfb85d18"},
        {"gsm_encode", "99b2bfb46693b300"},
        {"jpeg_compress", "f38789375a2d88e3"},
        {"jpeg_decompress", "7f99b63a715ed7f9"},
        {"mpeg2_decode", "85ec3895cf72db87"},
        {"mpeg2_encode", "e231a7928a185253"},
        {"gzip", "7b5f703bd1e1911d"},
        {"vpr", "5196a9881e00beb2"},
        {"mcf", "ba5a6ed3f44553ad"},
        {"swim", "185b45217b2e030c"},
        {"applu", "a0d03e9795c0d084"},
        {"art", "8074c8028fce48c0"},
        {"equake", "e314ccc14ab594be"},
    };
    ASSERT_EQ(std::size(suite), suiteNames().size());
    for (const auto &[name, hash] : suite)
        EXPECT_EQ(hex16(mcd::util::fnv1a64(
                      printProgram(makeBenchmark(name)))),
                  hash)
            << name;

    // The worked example is canonical text: a fixed point.
    EXPECT_EQ(printProgram(parseProgram(workedExample)), workedExample);
    EXPECT_EQ(hex16(mcd::util::fnv1a64(workedExample)),
              "b2a13f43f3f1bc5f");

    // CI greps fig06's output for this handle.
    EXPECT_EQ(hex16(mcd::util::fnv1a64(
                  printProgram(parseProgram(ciSmokeProgram)))),
              "bd510d62bb570dde");
    EXPECT_EQ(WorkloadRegistry::instance().addProgram(ciSmokeProgram),
              "prog:name=ci_smoke,hash=bd510d62bb570dde");
}

TEST(Authoring, EverySectionRoundTripsToPinnedText)
{
    // Sparse, reordered input touching every section and key kind:
    // args profiles, nested loops, both knob forms and seeds above
    // 2^53 (which a double would round).
    const char *sparse =
        "# every section of the grammar\n"
        "program: name=full_grammar, entry=top, seed=18446744073709551557\n"
        "input: set=ref, seed=9007199254740993, scale=2.5, "
        "knob.burst=0.75, knob.alpha=1.5\n"
        "input:   set=train ,  knob.burst=0.25, seed=3\n"
        "mix: id=int, ialu=0.4, load=0.2, branch=0.15, ws=32768, "
        "stride=16, dep=12\n"
        "mix: id=fp, fadd=0.3, fmul=0.2, fdiv=0.01, fsqrt=0.005, "
        "load=0.25, store=0.05, ws=4194304, stream=0.95, noise=0.01, "
        "short=0.4\n"
        "func: name=leaf\n"
        "  args: ws=1.0\n"
        "  args: stream=0.5, ws=4, trips=2, noise=0.05\n"
        "  loop: trips=8, scale=0\n"
        "    block: n=64, mix=fp\n"
        "  end\n"
        "func: name=top\n"
        "  loop: knob=alpha, trips=10, scale=1\n"
        "    block: mix=int, n=32\n"
        "    loop: trips=3.5, scale=0.5\n"
        "      call: f=leaf, arg=1, guard=0.5, knob=burst\n"
        "      block: mix=fp, n=16\n"
        "    end\n"
        "    call: f=leaf\n"
        "  end\n";
    const char *canonical =
        "program: name=full_grammar, entry=top, seed=18446744073709551557\n"
        "input: set=train, seed=3, scale=1.000, knob.burst=0.250\n"
        "input: set=ref, seed=9007199254740993, scale=2.500, "
        "knob.alpha=1.500, knob.burst=0.750\n"
        "mix: id=m0, ialu=0.400, imul=0.000, idiv=0.000, fadd=0.000, "
        "fmul=0.000, fdiv=0.000, fsqrt=0.000, load=0.200, store=0.000, "
        "branch=0.150, ws=32768, stream=0.700, stride=16, noise=0.030, "
        "short=0.550, dep=12\n"
        "mix: id=m1, ialu=0.000, imul=0.000, idiv=0.000, fadd=0.300, "
        "fmul=0.200, fdiv=0.010, fsqrt=0.005, load=0.250, store=0.050, "
        "branch=0.000, ws=4194304, stream=0.950, stride=8, noise=0.010, "
        "short=0.400, dep=24\n"
        "func: name=leaf\n"
        "  args: ws=1.000, trips=1.000, noise=0.000, stream=1.000\n"
        "  args: ws=4.000, trips=2.000, noise=0.050, stream=0.500\n"
        "  loop: trips=8.000, scale=0.000\n"
        "    block: mix=m1, n=64\n"
        "  end\n"
        "func: name=top\n"
        "  loop: trips=10.000, scale=1.000, knob=alpha\n"
        "    block: mix=m0, n=32\n"
        "    loop: trips=3.500, scale=0.500\n"
        "      call: f=leaf, arg=1, guard=0.500, knob=burst\n"
        "      block: mix=m1, n=16\n"
        "    end\n"
        "    call: f=leaf, arg=0, guard=1.000\n"
        "  end\n";
    Benchmark bm = parseProgram(sparse);
    EXPECT_EQ(bm.program.layoutSeed, 18446744073709551557ULL);
    EXPECT_EQ(bm.ref.seed, 9007199254740993ULL);
    std::string text = printProgram(bm);
    EXPECT_EQ(text, canonical);
    EXPECT_EQ(printProgram(parseProgram(text)), text);
    EXPECT_EQ(hex16(mcd::util::fnv1a64(text)), "29ed458067cab93d");
}

// ---------------------------------------------------------------- //
// Authored-program handles                                         //
// ---------------------------------------------------------------- //

namespace
{

const char *const tinyProgram = R"(
program: name=tiny_two_phase, entry=main
input: set=train, seed=3, scale=1.0
input: set=ref, seed=4, scale=1.3
mix: id=a, load=0.3, branch=0.1, ws=1048576, stream=0.3
mix: id=b, fadd=0.25, fmul=0.15, load=0.2, ws=65536, stream=0.9
func: name=ph0
  loop: trips=20, scale=0.5
    block: mix=a, n=150
  end
func: name=ph1
  loop: trips=18, scale=0.5
    block: mix=b, n=140
  end
func: name=main
  loop: trips=6, scale=1.0
    call: f=ph0
    call: f=ph1
  end
)";

} // namespace

TEST(AuthoredHandles, ContentAddressedAndResolvable)
{
    std::string handle =
        WorkloadRegistry::instance().addProgram(tinyProgram);
    // prog:name=<name>,hash=<16 hex> — deterministic across loads.
    EXPECT_EQ(handle.rfind("prog:name=tiny_two_phase,hash=", 0), 0u)
        << handle;
    EXPECT_EQ(WorkloadRegistry::instance().addProgram(tinyProgram),
              handle);
    // The handle is a first-class workload spec: canonicalizes to
    // itself and resolves through the same path as suite names.
    EXPECT_EQ(canonicalWorkloadSpec(handle), handle);
    Benchmark bm = makeBenchmark(handle);
    EXPECT_EQ(bm.program.name, "tiny_two_phase");
    EXPECT_EQ(bm.train.seed, 3u);
    // Semantically identical text with different formatting (extra
    // whitespace, reordered keys) content-addresses identically.
    std::string reformatted = tinyProgram;
    reformatted.replace(reformatted.find("seed=3, scale=1.0"),
                        17, "scale=1.0,   seed=3");
    EXPECT_EQ(WorkloadRegistry::instance().addProgram(reformatted),
              handle);
}

TEST(AuthoredHandles, UnloadedHandleIsACatchableError)
{
    try {
        makeBenchmark("prog:name=never_loaded,hash=0123456789abcdef");
        FAIL() << "unloaded handle did not throw";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("not loaded"),
                  std::string::npos)
            << e.what();
    }
    // Required parameters: a bare `prog` cannot canonicalize.
    EXPECT_THROW(canonicalWorkloadSpec("prog"), SpecError);
    EXPECT_THROW(canonicalWorkloadSpec("prog:name=x"), SpecError);
}
