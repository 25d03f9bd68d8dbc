#include "sim/checkpoint.hh"

namespace mcd::sim
{

using workload::InstrClass;
using workload::StreamItem;

FuncState::FuncState(const SimConfig &cfg,
                     const workload::Program &program,
                     const workload::InputSet &input)
    : stream(program, input),
      l1i(cfg.l1iSizeKb, cfg.l1iWays, cfg.lineSize),
      l1d(cfg.l1dSizeKb, cfg.l1dWays, cfg.lineSize),
      l2(cfg.l2SizeKb, cfg.l2Ways, cfg.lineSize),
      bpred(),
      lineSize(cfg.lineSize)
{
}

FuncDeltas
FuncState::advance(std::uint64_t n, const MarkerFn &on_marker)
{
    FuncDeltas d;
    StreamItem item;
    while (d.instrs < n && stream.next(item)) {
        if (item.kind == StreamItem::Kind::Marker) {
            if (on_marker)
                on_marker(item.marker, d.instrs);
            continue;
        }
        const workload::DynInstr &di = item.instr;
        std::uint64_t line = di.pc / lineSize;
        if (line != lastLine) {
            lastLine = line;
            if (!l1i.access(di.pc)) {
                ++d.icacheMisses;
                // Fetch-path L2 misses count only as DRAM accesses
                // (Frontend::fetch does not bump the L2-miss counter
                // for instruction lines).
                if (!l2.access(di.pc))
                    ++d.dramAccesses;
            }
        }
        if (di.cls == InstrClass::Load || di.cls == InstrClass::Store) {
            ++d.l1dAccesses;
            if (!l1d.access(di.addr)) {
                ++d.l1dMisses;
                if (!l2.access(di.addr)) {
                    ++d.l2Misses;
                    ++d.dramAccesses;
                }
            }
        } else if (di.cls == InstrClass::Branch) {
            ++d.branches;
            BranchPrediction pr = bpred.predict(di.pc);
            bool mis = pr.taken != di.taken ||
                       (di.taken &&
                        (!pr.btbHit || pr.target != di.target));
            if (mis)
                ++d.mispredicts;
            bpred.update(di.pc, di.taken, di.target);
        }
        ++d.instrs;
    }
    streamEnded = stream.done();
    return d;
}

std::shared_ptr<const CheckpointSet>
CheckpointSet::build(std::shared_ptr<const workload::Program> keepalive,
                     const workload::InputSet &input,
                     const SimConfig &cfg, std::uint64_t window)
{
    auto set = std::shared_ptr<CheckpointSet>(new CheckpointSet);
    set->keepalive_ = keepalive;
    set->sampling_ = cfg.sampling;
    set->window_ = window;

    FuncState f(cfg, *keepalive, input);
    std::uint64_t v = 0;
    std::uint64_t k = 0;
    for (;;) {
        // Past the last interval the walk is a tail skip to the
        // window end (probeLen == 0 marks it).
        ProbeSlot slot = probeSlot(cfg.sampling, k, window);
        std::uint64_t target = slot.start;
        std::uint64_t probe_want = slot.len;

        std::uint64_t span_start = v;
        std::vector<SpanEvent> pre_markers;
        FuncDeltas sd;
        if (target > v) {
            sd = f.advance(
                target - v, [&](const workload::Marker &mk,
                                std::uint64_t idx) {
                    pre_markers.push_back(
                        SpanEvent{span_start + idx, mk});
                });
            v += sd.instrs;
        }
        bool ended = sd.instrs < target - span_start;

        // Aggregate-init: FuncState has no default constructor, so
        // the probe-start snapshot doubles as the member initializer.
        Point p{0, sd.instrs, sd, std::move(pre_markers), f};
        if (!ended && probe_want > 0) {
            FuncDeltas pd =
                f.advance(probe_want, FuncState::MarkerFn{});
            p.probeLen = pd.instrs;
            v += pd.instrs;
            ended = pd.instrs < probe_want;
        }
        set->points_.push_back(std::move(p));
        if (ended || probe_want == 0)
            break;
        ++k;
    }
    return set;
}

bool
CheckpointSet::matches(const SamplingConfig &sp,
                       std::uint64_t window) const
{
    return sampling_.mode == sp.mode &&
           sampling_.intervalInstrs == sp.intervalInstrs &&
           sampling_.sampleInstrs == sp.sampleInstrs &&
           sampling_.warmupInstrs == sp.warmupInstrs &&
           window_ == window;
}

} // namespace mcd::sim
