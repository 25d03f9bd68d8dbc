#include "workload/program.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/spec.hh"

namespace mcd::workload
{

InstructionMix &
InstructionMix::set(InstrClass c, double f)
{
    frac[static_cast<size_t>(c)] = f;
    return *this;
}

InstructionMix &
InstructionMix::mem(std::uint64_t ws, double stream_frac,
                    std::uint32_t stride)
{
    workingSetBytes = ws;
    streamFrac = stream_frac;
    strideBytes = stride;
    return *this;
}

InstructionMix &
InstructionMix::branches(double frac_branch, double noise)
{
    frac[static_cast<size_t>(InstrClass::Branch)] = frac_branch;
    branchNoise = noise;
    return *this;
}

InstructionMix &
InstructionMix::ilp(double short_prob, int max_dist)
{
    shortDepProb = short_prob;
    maxDepDist = max_dist;
    return *this;
}

const Function &
Program::function(std::uint16_t id) const
{
    if (id >= functions.size())
        panic("function id %u out of range", id);
    return functions[id];
}

const Function *
Program::findFunction(const std::string &fname) const
{
    for (const auto &f : functions)
        if (f.name == fname)
            return &f;
    return nullptr;
}

double
InputSet::knob(const std::string &key, double dflt) const
{
    for (const auto &kv : knobs)
        if (kv.first == key)
            return kv.second;
    return dflt;
}

InputSet &
InputSet::with(const std::string &key, double value)
{
    knobs.emplace_back(key, value);
    return *this;
}

ProgramBuilder::ProgramBuilder(std::string program_name)
{
    prog.name = std::move(program_name);
}

MixId
ProgramBuilder::mix(const InstructionMix &m)
{
    prog.mixes.push_back(m);
    return static_cast<MixId>(prog.mixes.size() - 1);
}

std::uint16_t
ProgramBuilder::func(const std::string &name)
{
    endFunc();
    if (prog.findFunction(name))
        throw SpecError("duplicate function name '" + name + "'");
    Function f;
    f.id = static_cast<std::uint16_t>(prog.functions.size());
    f.name = name;
    f.argProfiles.push_back(ArgProfile{});
    prog.functions.push_back(std::move(f));
    listStack.push_back(&prog.functions.back().body);
    return prog.functions.back().id;
}

void
ProgramBuilder::endFunc()
{
    if (listStack.size() > 1)
        throw SpecError("missing 'end' for an open loop");
    listStack.clear();
}

void
ProgramBuilder::argProfiles(std::vector<ArgProfile> profiles)
{
    if (listStack.empty())
        throw SpecError("argProfiles() outside a function");
    if (profiles.empty())
        profiles.push_back(ArgProfile{});
    prog.functions.back().argProfiles = std::move(profiles);
}

std::vector<Stmt> &
ProgramBuilder::statements()
{
    if (listStack.empty())
        throw SpecError("statement outside a function body");
    return *listStack.back();
}

void
ProgramBuilder::block(MixId m, std::uint32_t count)
{
    std::vector<Stmt> &list = statements();
    if (m >= prog.mixes.size())
        throw SpecError(strprintf("unregistered mix id %u", m));
    if (count == 0)
        throw SpecError("empty block");
    Stmt s;
    s.kind = StmtKind::Block;
    s.block.mix = m;
    s.block.count = count;
    list.push_back(std::move(s));
}

void
ProgramBuilder::beginLoop(double base_trips, double scale_exp,
                          const std::string &trip_knob)
{
    std::vector<Stmt> &list = statements();
    Stmt s;
    s.kind = StmtKind::Loop;
    s.loop.baseTrips = base_trips;
    s.loop.scaleExp = scale_exp;
    s.loop.tripKnob = trip_knob;
    list.push_back(std::move(s));
    // Safe: statements only go to the innermost open list, so while
    // this body is open the enclosing list cannot reallocate.
    listStack.push_back(&list.back().loop.body);
}

void
ProgramBuilder::endLoop()
{
    if (listStack.size() < 2)
        throw SpecError("'end' without an open loop");
    if (listStack.back()->empty())
        throw SpecError("loop with an empty body");
    listStack.pop_back();
}

void
ProgramBuilder::loop(double base_trips, double scale_exp,
                     const std::function<void()> &fill)
{
    loopK(base_trips, scale_exp, "", fill);
}

void
ProgramBuilder::loopK(double base_trips, double scale_exp,
                      const std::string &trip_knob,
                      const std::function<void()> &fill)
{
    beginLoop(base_trips, scale_exp, trip_knob);
    fill();
    endLoop();
}

void
ProgramBuilder::call(const std::string &callee_name, std::uint8_t arg,
                     double guard_prob, const std::string &guard_knob)
{
    std::vector<Stmt> &list = statements();
    const Function *callee = prog.findFunction(callee_name);
    if (!callee)
        throw SpecError("call to undefined function '" + callee_name +
                        "' (define callees first)");
    if (arg >= callee->argProfiles.size())
        throw SpecError(strprintf(
            "arg=%u selects a profile '%s' does not have (it has %zu)",
            arg, callee_name.c_str(), callee->argProfiles.size()));
    Stmt s;
    s.kind = StmtKind::Call;
    s.call.callee = callee->id;
    s.call.arg = arg;
    s.call.guardProb = guard_prob;
    s.call.guardKnob = guard_knob;
    list.push_back(std::move(s));
}

namespace
{

/** Generate the static instructions of one block from its mix. */
std::vector<StaticInstr>
makeLayout(const InstructionMix &m, std::uint32_t count, Rng &rng)
{
    // Cumulative class distribution; remainder of the budget is
    // IntAlu.
    std::array<double, numInstrClasses> cum{};
    double acc = 0.0;
    for (int c = 0; c < numInstrClasses; ++c) {
        acc += m.frac[static_cast<size_t>(c)];
        cum[static_cast<size_t>(c)] = acc;
    }

    auto pick_dist = [&](void) -> std::uint8_t {
        if (rng.chance(m.shortDepProb))
            return static_cast<std::uint8_t>(1 + rng.below(3));
        int span = m.maxDepDist > 4 ? m.maxDepDist - 3 : 1;
        return static_cast<std::uint8_t>(
            4 + rng.below(static_cast<std::uint64_t>(span)));
    };

    std::vector<StaticInstr> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        StaticInstr si;
        double u = rng.uniform() * std::max(acc, 1.0);
        si.cls = InstrClass::IntAlu;
        if (u < acc) {
            for (int c = 0; c < numInstrClasses; ++c) {
                if (u < cum[static_cast<size_t>(c)]) {
                    si.cls = static_cast<InstrClass>(c);
                    break;
                }
            }
        }
        // Dependence density: a realistic fraction of operands come
        // from values produced long ago (loop invariants, induction
        // variables, immediates), which the pipeline sees as ready.
        switch (si.cls) {
          case InstrClass::Load:
            // Addresses often derive from induction variables that
            // are available early.
            si.dep1 = rng.chance(0.5) ? pick_dist() : 0;
            si.dep2 = 0;
            break;
          case InstrClass::Store:
            si.dep1 = rng.chance(0.8) ? pick_dist() : 0;  // data
            si.dep2 = rng.chance(0.4) ? pick_dist() : 0;  // address
            break;
          case InstrClass::Branch:
            si.dep1 = rng.chance(0.7) ? pick_dist() : 0;  // condition
            si.dep2 = 0;
            // Most static branches are strongly biased (loop guards,
            // error checks); a minority are data-dependent and
            // harder to predict.
            si.takenBias = rng.chance(0.85)
                ? (rng.chance(0.6) ? 0.94f : 0.06f)
                : 0.62f;
            break;
          default:
            si.dep1 = rng.chance(0.7) ? pick_dist() : 0;
            si.dep2 = rng.chance(0.35) ? pick_dist() : 0;
            break;
        }
        out.push_back(si);
    }
    return out;
}

/** Recursive pc/ids assignment over a statement list. */
void
layoutStmts(Program &prog, std::vector<Stmt> &stmts, std::uint64_t &pc,
            std::uint64_t layout_seed)
{
    for (auto &s : stmts) {
        switch (s.kind) {
          case StmtKind::Block: {
            s.block.blockId =
                static_cast<std::uint32_t>(prog.blockLayouts.size());
            s.block.basePc = pc;
            pc += 4ULL * s.block.count;
            Rng rng(layout_seed ^
                    (0x517CC1B727220A95ULL * (s.block.blockId + 1)));
            prog.blockLayouts.push_back(
                makeLayout(prog.mixes[s.block.mix], s.block.count, rng));
            break;
          }
          case StmtKind::Loop:
            s.loop.loopId = prog.numLoops++;
            layoutStmts(prog, s.loop.body, pc, layout_seed);
            s.loop.branchPc = pc;
            pc += 4;
            break;
          case StmtKind::Call:
            s.call.siteId = prog.numCallSites++;
            s.call.callPc = pc;
            pc += 4;
            break;
        }
    }
}

/** Assign block/loop/call ids and pcs and materialize the static
 *  block layouts from @p layout_seed (the same structure and seed
 *  always yield identical layouts). */
void
finalizeLayout(Program &prog, std::uint64_t layout_seed)
{
    prog.layoutSeed = layout_seed;
    std::uint64_t pc = 0x10000;
    for (auto &f : prog.functions) {
        pc = (pc + 63) & ~63ULL;  // align functions to cache lines
        f.basePc = pc;
        layoutStmts(prog, f.body, pc, layout_seed);
        f.retPc = pc;
        pc += 4;
    }
}

} // namespace

Program
ProgramBuilder::build(const std::string &entry_name,
                      std::uint64_t layout_seed)
{
    endFunc();
    const Function *entry = prog.findFunction(entry_name);
    if (!entry)
        throw SpecError("entry function '" + entry_name +
                        "' is not defined");
    prog.entry = entry->id;
    finalizeLayout(prog, layout_seed);
    return std::move(prog);
}

} // namespace mcd::workload
