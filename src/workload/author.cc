#include "workload/author.hh"

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "util/logging.hh"
#include "util/spec.hh"
#include "util/text.hh"

namespace mcd::workload
{

namespace
{

using util::SpecParam;
using util::SpecParamInfo;
using util::SpecParams;

// ---------------------------------------------------------------- //
// Section schemas                                                  //
// ---------------------------------------------------------------- //

/** A full 64-bit decimal, read exactly: a seed above 2^53 must not
 *  round through a double. */
bool
canonicalSeed(std::string &v)
{
    std::uint64_t x = 0;
    if (!util::parseU64(v, ~0ULL, x))
        return false;
    v = std::to_string(x);
    return true;
}

const util::SpecTextType SEED = {"integer", "an integer in [0, 2^64)",
                                 canonicalSeed};

std::uint64_t
seedOf(const SpecParam &p)
{
    return std::strtoull(p.text.c_str(), nullptr, 10);
}

/** The per-class mix keys, in InstrClass order. */
const char *const mixClassKeys[numInstrClasses] = {
    "ialu", "imul", "idiv", "fadd", "fmul",
    "fdiv", "fsqrt", "load", "store", "branch",
};

/** One section of the grammar as a spec-engine kind: its keys in
 *  canonical (print) order, with defaults and ranges. */
class Section final : public util::SpecKind
{
  public:
    Section(const char *name, std::vector<SpecParamInfo> schema)
        : name_(name), schema(std::move(schema))
    {
    }

    const char *name() const override { return name_; }
    const char *description() const override { return ""; }
    std::vector<SpecParamInfo> params() const override { return schema; }

  private:
    const char *name_;
    std::vector<SpecParamInfo> schema;
};

const util::SpecRegistry &
sections()
{
    static const util::SpecRegistry *reg = [] {
        using P = SpecParamInfo;
        auto *r = new util::SpecRegistry("section");
        auto add = [r](const char *name, std::vector<P> schema) {
            r->add(std::make_unique<Section>(name, std::move(schema)));
        };
        add("program",
            {P::text("name", "", "program name"),
             P::text("entry", "main", "entry function"),
             P::text("seed", "12345", "static block-layout seed", SEED)});
        const InputSet in{};
        add("input",
            {P::text("set", "", "train or ref"),
             P::text("seed", std::to_string(in.seed),
                      "stream seed of this input", SEED),
             P::num("scale", in.scale, "global input scale", 0.001, 1e6)});
        const InstructionMix mix{};
        std::vector<P> mixKeys = {P::text("id", "", "mix id")};
        for (const char *c : mixClassKeys)
            mixKeys.push_back(
                P::num(c, 0.0, "instruction-class fraction", 0, 1));
        mixKeys.insert(
            mixKeys.end(),
            {P::count("ws", static_cast<double>(mix.workingSetBytes),
                      "working-set bytes", 1, 1ULL << 40),
             P::num("stream", mix.streamFrac, "streaming fraction", 0, 1),
             P::count("stride", mix.strideBytes, "stream stride bytes", 1,
                      1u << 20),
             P::num("noise", mix.branchNoise, "branch noise", 0, 1),
             P::num("short", mix.shortDepProb,
                    "short-dependence probability", 0, 1),
             P::count("dep", mix.maxDepDist, "maximum producer distance",
                      1, 255)});
        add("mix", std::move(mixKeys));
        add("func", {P::text("name", "", "function name")});
        const ArgProfile arg{};
        add("args",
            {P::num("ws", arg.wsMul, "working-set multiplier", 0, 1e6),
             P::num("trips", arg.tripMul, "trip-count multiplier", 0, 1e6),
             P::num("noise", arg.noiseAdd, "extra branch noise", 0, 1),
             P::num("stream", arg.streamMul, "streaming multiplier", 0,
                    1e6)});
        // `n` has no default: the engine's numbers always carry one,
        // so readLine() checks that it is given.
        add("block", {P::text("mix", "", "mix id"),
                      P::count("n", 0, "instructions", 1, 1u << 20)});
        const LoopStmt loop{};
        add("loop",
            {P::num("trips", loop.baseTrips, "base trip count", 0.001, 1e9),
             P::num("scale", loop.scaleExp, "input-scale exponent", 0, 16)});
        const CallStmt call{};
        add("call", {P::text("f", "", "callee"),
                     P::count("arg", call.arg, "callee's args: profile",
                              0, 255),
                     P::num("guard", call.guardProb,
                            "execution probability", 0, 1)});
        return r;
    }();
    return *reg;
}

/** True for the input-knob references, the only keys outside the
 *  section schemas: `knob.<name>=` on input:, `knob=` on loop: and
 *  call:. */
bool
isKnob(const std::string &section, const std::string &key)
{
    if (section == "input")
        return key.rfind("knob.", 0) == 0;
    return key == "knob" && (section == "loop" || section == "call");
}

/**
 * Canonicalize one section line: @p params against the section's
 * schema, and @p knobs (its input-knob references) against the value
 * charset, each `knob.<name>` value quantized as a number parameter
 * is.  The one path both parseProgram() and printProgram() take, so
 * what one reads the other writes.
 */
void
canonicalLine(const std::string &section, SpecParams &params,
              SpecParams &knobs)
{
    sections().canonicalize(section, params);
    for (SpecParam &k : knobs.items) {
        bool ref = k.name == "knob";
        std::string name = ref ? k.text : k.name.substr(5);
        if (!util::validSpecValue(name))
            throw SpecError("knob name '" + name +
                            "' is not a [A-Za-z0-9_.-]+ value");
        if (!ref) {
            if (!util::parseDouble(k.text, k.num))
                throw SpecError("'" + k.text + "' of '" + k.name +
                                "' is not a number");
            knobs.set(k.name, k.num);
        }
    }
}

/**
 * @p raw in spec-engine form, `section:key=value,...`: blanks next to
 * the ':' and ',' separators and at either end dropped, and a
 * section line without keys written as the bare section name.
 * Throws SpecError if the line has no ':'.
 */
std::string
specForm(const std::string &raw)
{
    std::string out, blanks;
    for (char c : raw) {
        if (c == ' ' || c == '\t' || c == '\r') {
            blanks += c;
            continue;
        }
        if (c != ':' && c != ',' && !out.empty() && out.back() != ':' &&
            out.back() != ',')
            out += blanks;
        blanks.clear();
        out += c;
    }
    if (out.empty() || out[0] == '#' || out == "end")
        return out;
    std::size_t colon = out.find(':');
    if (colon == std::string::npos)
        throw SpecError("expected 'section: key=value, ...' or 'end', "
                        "got '" + out + "'");
    if (colon + 1 == out.size())
        out.pop_back();
    return out;
}

/** Split and canonicalize the spec-form line @p s into its section
 *  name, schema keys and input-knob references. */
std::string
readLine(const std::string &s, SpecParams &params, SpecParams &knobs)
{
    std::string section, err;
    if (!util::splitSpec(s, "section line", section, params, err))
        throw SpecError(err);
    SpecParams keys;
    for (SpecParam &p : params.items)
        (isKnob(section, p.name) ? knobs : keys)
            .items.push_back(std::move(p));
    params = std::move(keys);
    if (section == "block" && !params.find("n"))
        throw SpecError("section 'block' requires key 'n'");
    canonicalLine(section, params, knobs);
    return section;
}

/** What the lines read so far have built.  The program goes through
 *  one ProgramBuilder, which checks its structure; the state kept
 *  here is for the rules only the text has: the `program:` line, the
 *  two inputs, named mix ids and where `args:` lines may stand. */
struct ParseState
{
    /** Created at the `program:` line. */
    std::optional<ProgramBuilder> prog;
    Benchmark bm;
    std::string entry;
    std::uint64_t layoutSeed = 0;
    bool sawTrain = false;
    bool sawRef = false;
    bool sawFunc = false;
    std::map<std::string, MixId> mixIds;
    /** Whether a function is open, whether it has a statement yet,
     *  and its `args:` profiles so far. */
    bool inFunc = false;
    bool sawStmt = false;
    std::vector<ArgProfile> args;

    void line(const std::string &s);

    void
    closeFunction()
    {
        prog->endFunc();
        inFunc = false;
    }
};

void
ParseState::line(const std::string &s)
{
    SpecParams p, knobs;
    std::string section = s == "end" ? s : readLine(s, p, knobs);
    auto num = [&](const char *key) { return p.at(key).num; };
    auto text = [&](const char *key) { return p.at(key).text; };
    auto knob = [&] {
        const SpecParam *k = knobs.find("knob");
        return k ? k->text : std::string();
    };
    if (section == "program") {
        if (prog)
            throw SpecError("duplicate 'program:' line");
        prog.emplace(text("name"));
        entry = text("entry");
        layoutSeed = seedOf(p.at("seed"));
        return;
    }
    if (!prog)
        throw SpecError("a program text must start with a 'program: "
                        "name=...' line");
    if (section == "end") {
        prog->endLoop();
    } else if (section == "input") {
        closeFunction();
        std::string role = text("set");
        if (role != "train" && role != "ref")
            throw SpecError("input set must be 'train' or 'ref', got '" +
                            role + "'");
        bool &seen = role == "train" ? sawTrain : sawRef;
        if (seen)
            throw SpecError("duplicate 'input: set=" + role + "'");
        seen = true;
        InputSet in;
        in.name = role;
        in.seed = seedOf(p.at("seed"));
        in.scale = num("scale");
        std::map<std::string, double> sorted;
        for (const SpecParam &k : knobs.items)
            sorted[k.name.substr(5)] = k.num;
        in.knobs.assign(sorted.begin(), sorted.end());
        (role == "train" ? bm.train : bm.ref) = std::move(in);
    } else if (section == "mix") {
        closeFunction();
        std::string id = text("id");
        if (mixIds.count(id))
            throw SpecError("duplicate mix id '" + id + "'");
        InstructionMix m;
        for (int c = 0; c < numInstrClasses; ++c)
            m.frac[static_cast<std::size_t>(c)] = num(mixClassKeys[c]);
        m.workingSetBytes = static_cast<std::uint64_t>(num("ws"));
        m.streamFrac = num("stream");
        m.strideBytes = static_cast<std::uint32_t>(num("stride"));
        m.branchNoise = num("noise");
        m.shortDepProb = num("short");
        m.maxDepDist = static_cast<int>(num("dep"));
        mixIds[id] = prog->mix(m);
    } else if (section == "func") {
        prog->func(text("name"));
        sawFunc = inFunc = true;
        sawStmt = false;
        args.clear();
    } else if (section == "args") {
        if (!inFunc)
            throw SpecError("'args:' outside a function");
        if (sawStmt)
            throw SpecError("'args:' must precede the function's "
                            "statements");
        ArgProfile a;
        a.wsMul = num("ws");
        a.tripMul = num("trips");
        a.noiseAdd = num("noise");
        a.streamMul = num("stream");
        args.push_back(a);
        prog->argProfiles(args);
    } else if (section == "block") {
        sawStmt = true;
        auto it = mixIds.find(text("mix"));
        if (it == mixIds.end())
            throw SpecError("unknown mix id '" + text("mix") +
                            "' (mixes must be declared first)");
        prog->block(it->second, static_cast<std::uint32_t>(num("n")));
    } else if (section == "loop") {
        sawStmt = true;
        prog->beginLoop(num("trips"), num("scale"), knob());
    } else if (section == "call") {
        sawStmt = true;
        prog->call(text("f"), static_cast<std::uint8_t>(num("arg")),
                   num("guard"), knob());
    }
}

} // namespace

Benchmark
parseProgram(const std::string &text)
{
    ParseState st;
    std::istringstream in(text);
    std::string raw;
    int no = 0, last = 0;
    try {
        while (std::getline(in, raw)) {
            ++no;
            std::string s = specForm(raw);
            if (s.empty() || s[0] == '#')
                continue;
            last = no;
            st.line(s);
        }
        no = last;
        if (st.prog)
            st.prog->endFunc();
    } catch (const SpecError &e) {
        throw SpecError(strprintf("workload program text line %d: %s",
                                  no, e.what()));
    }

    if (!st.prog)
        throw SpecError(
            "workload program text must start with a 'program: "
            "name=...' line");
    if (!st.sawFunc)
        throw SpecError("workload program text defines no functions");
    if (!st.sawTrain || !st.sawRef)
        throw SpecError(
            "workload program text must define both 'input: "
            "set=train' and 'input: set=ref'");
    st.bm.program = st.prog->build(st.entry, st.layoutSeed);
    return std::move(st.bm);
}

// ---------------------------------------------------------------- //
// Printer                                                          //
// ---------------------------------------------------------------- //

namespace
{

/** One canonical line: @p params (each key set, in any order) in
 *  schema order, then @p knobs. */
void
printLine(std::ostringstream &os, int depth, const char *section,
          SpecParams params, SpecParams knobs = {})
{
    canonicalLine(section, params, knobs);
    os << std::string(static_cast<std::size_t>(2 * depth), ' ')
       << section << ':';
    const char *sep = " ";
    for (const SpecParams *ps : {&params, &knobs})
        for (const SpecParam &p : ps->items) {
            os << sep << p.name << '=' << p.text;
            sep = ", ";
        }
    os << '\n';
}

void
printInput(std::ostringstream &os, const char *role,
           const InputSet &in)
{
    SpecParams p, knobs;
    p.set("set", role);
    p.set("seed", std::to_string(in.seed));
    p.set("scale", in.scale);
    std::map<std::string, double> sorted(in.knobs.begin(),
                                         in.knobs.end());
    for (const auto &kv : sorted)
        knobs.set("knob." + kv.first, kv.second);
    printLine(os, 0, "input", std::move(p), std::move(knobs));
}

void
printStmts(std::ostringstream &os, const Program &prog,
           const std::vector<Stmt> &stmts, int depth)
{
    for (const Stmt &s : stmts) {
        SpecParams p, knobs;
        switch (s.kind) {
          case StmtKind::Block:
            p.set("mix", "m" + std::to_string(s.block.mix));
            p.set("n", s.block.count);
            printLine(os, depth, "block", std::move(p));
            break;
          case StmtKind::Loop:
            p.set("trips", s.loop.baseTrips);
            p.set("scale", s.loop.scaleExp);
            if (!s.loop.tripKnob.empty())
                knobs.set("knob", s.loop.tripKnob);
            printLine(os, depth, "loop", std::move(p), std::move(knobs));
            printStmts(os, prog, s.loop.body, depth + 1);
            os << std::string(static_cast<std::size_t>(2 * depth), ' ')
               << "end\n";
            break;
          case StmtKind::Call:
            p.set("f", prog.function(s.call.callee).name);
            p.set("arg", s.call.arg);
            p.set("guard", s.call.guardProb);
            if (!s.call.guardKnob.empty())
                knobs.set("knob", s.call.guardKnob);
            printLine(os, depth, "call", std::move(p), std::move(knobs));
            break;
        }
    }
}

bool
isDefaultProfile(const ArgProfile &p)
{
    return p.wsMul == 1.0 && p.tripMul == 1.0 && p.noiseAdd == 0.0 &&
           p.streamMul == 1.0;
}

} // namespace

std::string
printProgram(const Benchmark &bm)
{
    const Program &prog = bm.program;
    std::ostringstream os;
    if (prog.entry >= prog.functions.size())
        throw SpecError("program '" + prog.name +
                        "' has no valid entry function");
    SpecParams head;
    head.set("name", prog.name);
    head.set("entry", prog.functions[prog.entry].name);
    head.set("seed", std::to_string(prog.layoutSeed));
    printLine(os, 0, "program", std::move(head));
    printInput(os, "train", bm.train);
    printInput(os, "ref", bm.ref);
    for (std::size_t i = 0; i < prog.mixes.size(); ++i) {
        const InstructionMix &m = prog.mixes[i];
        SpecParams p;
        p.set("id", "m" + std::to_string(i));
        for (int c = 0; c < numInstrClasses; ++c)
            p.set(mixClassKeys[c], m.frac[static_cast<std::size_t>(c)]);
        p.set("ws", static_cast<double>(m.workingSetBytes));
        p.set("stream", m.streamFrac);
        p.set("stride", m.strideBytes);
        p.set("noise", m.branchNoise);
        p.set("short", m.shortDepProb);
        p.set("dep", m.maxDepDist);
        printLine(os, 0, "mix", std::move(p));
    }
    for (const Function &f : prog.functions) {
        SpecParams name;
        name.set("name", f.name);
        printLine(os, 0, "func", std::move(name));
        bool trivial = f.argProfiles.size() == 1 &&
                       isDefaultProfile(f.argProfiles[0]);
        for (std::size_t i = 0; !trivial && i < f.argProfiles.size();
             ++i) {
            const ArgProfile &a = f.argProfiles[i];
            SpecParams p;
            p.set("ws", a.wsMul);
            p.set("trips", a.tripMul);
            p.set("noise", a.noiseAdd);
            p.set("stream", a.streamMul);
            printLine(os, 1, "args", std::move(p));
        }
        printStmts(os, prog, f.body, 1);
    }
    return os.str();
}

std::string
readProgramFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SpecError("cannot read workload program file '" +
                        path + "'");
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace mcd::workload
