#include "workload/stream.hh"

#include <cmath>

#include "util/logging.hh"

namespace mcd::workload
{

namespace
{

/** FNV-1a hash for deriving the behaviour seed from the program name
 *  (with the reference offset basis, unlike util::Fnv1a; changing
 *  either would move every stream or every key). */
std::uint64_t
hashName(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

} // namespace

Stream::Stream(const Program &program, const InputSet &in)
    : prog(&program), input(in),
      rng(in.seed * 0x9E3779B97F4A7C15ULL ^ hashName(program.name)),
      blockStates(program.blockLayouts.size())
{
    enterFunction(prog->function(prog->entry), ArgProfile{}, 0);
}

bool
Stream::next(StreamItem &out)
{
    while (queue.empty() && !stack.empty())
        step();
    if (queue.empty())
        return false;
    out = queue.front();
    queue.pop_front();
    return true;
}

void
Stream::pushInstr(const DynInstr &di)
{
    StreamItem item;
    item.kind = StreamItem::Kind::Instr;
    item.instr = di;
    queue.push_back(item);
}

void
Stream::pushMarker(MarkerKind kind, std::uint16_t func,
                   std::uint16_t loop, std::uint16_t site)
{
    StreamItem item;
    item.kind = StreamItem::Kind::Marker;
    item.marker = Marker{kind, func, loop, site};
    queue.push_back(item);
}

void
Stream::enterFunction(const Function &fn, const ArgProfile &prof,
                      std::uint16_t site)
{
    frames.push_back(Frame{&fn, prof});
    pushMarker(MarkerKind::FuncEnter, fn.id, 0, site);
    Task exit_task;
    exit_task.kind = Task::Kind::FrameExit;
    exit_task.fn = &fn;
    stack.push_back(exit_task);
    Task body;
    body.kind = Task::Kind::List;
    body.list = &fn.body;
    body.idx = 0;
    stack.push_back(body);
}

std::uint64_t
Stream::loopTrips(const LoopStmt &l) const
{
    double knob_mul =
        l.tripKnob.empty() ? 1.0 : input.knob(l.tripKnob, 1.0);
    double t = l.baseTrips * std::pow(input.scale, l.scaleExp) *
               knob_mul * frames.back().prof.tripMul;
    if (t < 1.0)
        return 1;
    return static_cast<std::uint64_t>(std::llround(t));
}

std::uint64_t
Stream::genAddress(const BlockStmt &blk)
{
    const InstructionMix &m = prog->mixes[blk.mix];
    const ArgProfile &prof = frames.back().prof;
    double ws_d = static_cast<double>(m.workingSetBytes) * prof.wsMul *
                  input.knob("ws_scale", 1.0);
    std::uint64_t ws = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(ws_d));
    std::uint64_t region =
        (static_cast<std::uint64_t>(blk.blockId) + 1) << 30;
    double stream_frac = std::min(1.0, m.streamFrac * prof.streamMul);
    BlockState &st = blockStates[blk.blockId];
    if (rng.chance(stream_frac)) {
        st.streamPos += m.strideBytes;
        if (st.streamPos >= ws)
            st.streamPos = 0;
        return region + st.streamPos;
    }
    return region + (rng.below(ws / 8) * 8);
}

void
Stream::emitBlockInstr(Task &t)
{
    const BlockStmt &blk = *t.blk;
    const StaticInstr &si = prog->blockLayouts[blk.blockId][t.i];
    const InstructionMix &m = prog->mixes[blk.mix];

    DynInstr di;
    di.pc = blk.basePc + 4ULL * t.i;
    di.cls = si.cls;
    di.dep1 = si.dep1;
    di.dep2 = si.dep2;
    if (si.cls == InstrClass::Load || si.cls == InstrClass::Store) {
        di.addr = genAddress(blk);
    } else if (si.cls == InstrClass::Branch) {
        double noise = std::min(
            0.5, m.branchNoise + frames.back().prof.noiseAdd);
        double p_taken = static_cast<double>(si.takenBias);
        double p_eff = p_taken * (1.0 - noise) + (1.0 - p_taken) * noise;
        di.taken = rng.chance(p_eff);
        di.target = di.pc + 32;  // stable per-static-branch target
    }
    pushInstr(di);
    ++t.i;
    if (t.i >= blk.count)
        stack.pop_back();
}

void
Stream::step()
{
    Task &t = stack.back();
    switch (t.kind) {
      case Task::Kind::Block:
        emitBlockInstr(t);
        return;

      case Task::Kind::List: {
        if (t.idx >= t.list->size()) {
            stack.pop_back();
            return;
        }
        const Stmt &s = (*t.list)[t.idx++];
        // NOTE: `t` may dangle after further pushes; do not touch it
        // below this point.
        switch (s.kind) {
          case StmtKind::Block: {
            Task nt;
            nt.kind = Task::Kind::Block;
            nt.blk = &s.block;
            nt.i = 0;
            stack.push_back(nt);
            return;
          }
          case StmtKind::Loop: {
            pushMarker(MarkerKind::LoopEnter, frames.back().fn->id,
                       s.loop.loopId, 0);
            Task nt;
            nt.kind = Task::Kind::Loop;
            nt.loop = &s.loop;
            nt.remaining = loopTrips(s.loop);
            stack.push_back(nt);
            return;
          }
          case StmtKind::Call: {
            double p = s.call.guardKnob.empty()
                ? s.call.guardProb
                : input.knob(s.call.guardKnob, s.call.guardProb);
            if (p < 1.0 && !rng.chance(p))
                return;  // guarded call not taken this time
            const Function &callee = prog->function(s.call.callee);
            pushMarker(MarkerKind::CallSite, frames.back().fn->id, 0,
                       s.call.siteId);
            DynInstr call_br;
            call_br.pc = s.call.callPc;
            call_br.cls = InstrClass::Branch;
            call_br.taken = true;
            call_br.target = callee.basePc;
            pushInstr(call_br);
            const ArgProfile &prof =
                s.call.arg < callee.argProfiles.size()
                    ? callee.argProfiles[s.call.arg]
                    : callee.argProfiles[0];
            enterFunction(callee, prof, s.call.siteId);
            return;
          }
        }
        return;
      }

      case Task::Kind::Loop: {
        if (t.remaining == 0) {
            pushMarker(MarkerKind::LoopExit, frames.back().fn->id,
                       t.loop->loopId, 0);
            stack.pop_back();
            return;
        }
        --t.remaining;
        bool more = t.remaining > 0;
        const LoopStmt *loop = t.loop;
        Task bb;
        bb.kind = Task::Kind::BackBranch;
        bb.loop = loop;
        bb.taken = more;
        stack.push_back(bb);
        Task body;
        body.kind = Task::Kind::List;
        body.list = &loop->body;
        body.idx = 0;
        stack.push_back(body);
        return;
      }

      case Task::Kind::BackBranch: {
        const std::uint64_t branch_pc = t.loop->branchPc;
        const bool taken = t.taken;
        stack.pop_back();  // `t` is dead from here on
        DynInstr br;
        br.pc = branch_pc;
        br.cls = InstrClass::Branch;
        br.taken = taken;
        br.target = branch_pc + 16;  // stable back-edge target
        br.dep1 = 1;
        pushInstr(br);
        return;
      }

      case Task::Kind::FrameExit: {
        const Function *fn = t.fn;
        stack.pop_back();
        pushMarker(MarkerKind::FuncExit, fn->id, 0, 0);
        DynInstr ret;
        ret.pc = fn->retPc;
        ret.cls = InstrClass::Branch;
        ret.taken = true;
        ret.target = fn->retPc + 16;
        pushInstr(ret);
        if (frames.empty())
            panic("frame stack underflow");
        frames.pop_back();
        return;
      }
    }
}

} // namespace mcd::workload
