#include "sim/checkpoint.hh"

namespace mcd::sim
{

using workload::InstrClass;

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
    while (d.instrs < n) {
        std::size_t got = stream.nextBatch(batch, n - d.instrs);
        std::size_t m = 0;
        for (std::size_t i = 0; i < got; ++i) {
            while (m < batch.markers.size() &&
                   batch.markerPos[m] == i) {
                if (on_marker)
                    on_marker(batch.markers[m], d.instrs);
                ++m;
            }
            std::uint64_t pc = batch.pc[i];
            std::uint64_t line = pc / lineSize;
            if (line != lastLine) {
                lastLine = line;
                if (!l1i.access(pc)) {
                    ++d.icacheMisses;
                    // Fetch-path L2 misses count only as DRAM
                    // accesses (Frontend::fetch does not bump the
                    // L2-miss counter for instruction lines).
                    if (!l2.access(pc))
                        ++d.dramAccesses;
                }
            }
            InstrClass c = batch.cls[i];
            if (c == InstrClass::Load || c == InstrClass::Store) {
                ++d.l1dAccesses;
                if (!l1d.access(batch.addr[i])) {
                    ++d.l1dMisses;
                    if (!l2.access(batch.addr[i])) {
                        ++d.l2Misses;
                        ++d.dramAccesses;
                    }
                }
            } else if (c == InstrClass::Branch) {
                ++d.branches;
                BranchPrediction pr = bpred.predict(pc);
                bool mis = pr.taken != batch.taken[i] ||
                           (batch.taken[i] &&
                            (!pr.btbHit ||
                             pr.target != batch.target[i]));
                if (mis)
                    ++d.mispredicts;
                bpred.update(pc, batch.taken[i], batch.target[i]);
            }
            ++d.instrs;
        }
        // Trailing markers (markerPos == n) only occur at end of
        // program; deliver them so the handler sees the full stream.
        while (m < batch.markers.size()) {
            if (on_marker)
                on_marker(batch.markers[m], d.instrs);
            ++m;
        }
        if (got == 0)
            break;  // end of program
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
