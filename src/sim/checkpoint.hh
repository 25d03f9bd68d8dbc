/**
 * @file
 * Functional microarchitectural state and shared checkpoints for
 * sampled simulation (sim/sampling.hh).
 *
 * `FuncState` is the authoritative between-probe trajectory of a
 * sampled run: the stream position plus the long-lived
 * microarchitectural structures (caches, branch predictor, last
 * fetched line) advanced *functionally* — architectural effects in
 * program order, no per-edge scheduling — over both probe and skip
 * spans.  At each probe start the sampler copies the functional
 * state into the Processor and runs the probe detailed; the probe's
 * own mutations are overwritten at the next copy-in, which makes the
 * trajectory independent of frequencies, policies and schedules.
 * That independence is what `CheckpointSet` exploits: one functional
 * walk of a benchmark (probe-start states + recorded skip-span
 * markers and counter deltas) is shared by every policy cell of a
 * sweep, so per-cell cost drops to the detailed probes alone.
 */

#ifndef MCD_SIM_CHECKPOINT_HH
#define MCD_SIM_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "workload/stream.hh"

namespace mcd::sim
{

/**
 * Counter deltas accumulated by one functional advance: the same
 * event counts the detailed pipeline would have bumped over the span
 * (with the same asymmetry — instruction-fetch L2 misses count only
 * as DRAM accesses, mirroring Frontend::fetch).
 */
struct FuncDeltas
{
    std::uint64_t instrs = 0;        ///< instructions consumed
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramAccesses = 0;
};

/**
 * The functional microarchitectural state of a sampled run, advanced
 * in program order at batch-decode speed (workload::StreamBatch).
 *
 * Copyable: probe-start snapshots are plain copies, and the sampler
 * copy-assigns the members into the Processor.
 */
class FuncState
{
  public:
    FuncState(const SimConfig &cfg, const workload::Program &program,
              const workload::InputSet &input);

    /**
     * Marker callback: the marker plus the span-relative index of
     * the instruction it precedes (0 = before the span's first
     * instruction; == consumed count for end-of-program trailers).
     */
    using MarkerFn =
        std::function<void(const workload::Marker &, std::uint64_t)>;

    /**
     * Advance exactly @p n instructions (or to end of program),
     * updating caches/predictor/stream and accumulating deltas.
     * Markers interleaved with the span are reported to @p on_marker
     * (pass an empty function to suppress — probe spans deliver
     * their markers through the detailed pipeline instead).  Markers
     * that follow the span's last instruction are left in the stream
     * unless the program ends, matching the detailed fetch loop's
     * budget-check-before-pull order.
     */
    FuncDeltas advance(std::uint64_t n, const MarkerFn &on_marker);

    /** Instructions consumed since construction (virtual index). */
    std::uint64_t index() const { return index_; }

    // State bundle, copied into the Processor at probe start.
    workload::Stream stream;
    Cache l1i;
    Cache l1d;
    Cache l2;
    BranchPredictor bpred;
    std::uint64_t lastLine = ~0ULL;  ///< last fetched I-cache line
    bool streamEnded = false;        ///< program ran to completion

  private:
    std::uint32_t lineSize;
    std::uint64_t index_ = 0;
    workload::StreamBatch batch;     ///< decode scratch
};

/**
 * Per-benchmark precomputed sampling trajectory: the functional
 * state at every probe start plus each skip span's markers and
 * counter deltas, built once by a pure functional walk and shared
 * (frequency- and policy-independent) across every cell of a sweep
 * that runs the same benchmark, window and sampling geometry.
 */
class CheckpointSet
{
  public:
    /** A marker inside a skip span, at its global virtual index
     *  (the index of the instruction it precedes). */
    struct SpanEvent
    {
        std::uint64_t index = 0;
        workload::Marker marker;
    };

    /**
     * One sampling interval: the functional pre-skip from the
     * previous probe's end to this interval's jittered probe
     * position (sim::sampleProbeOffset), then the probe itself.
     * The final point is a tail (probeLen == 0): its pre-skip runs
     * to the window end (or wherever the program ended).
     */
    struct Point
    {
        std::uint64_t startIndex = 0;  ///< virtual index at point start
        std::uint64_t probeLen = 0;    ///< detailed instrs (0 = tail)
        std::uint64_t skipLen = 0;     ///< pre-skip instrs before probe
        FuncDeltas skipDeltas;         ///< counters over the pre-skip
        std::vector<SpanEvent> skipMarkers;  ///< markers in the pre-skip
        FuncState state;               ///< functional state at probe start
    };

    /**
     * Build by walking [0, @p window) virtual instructions of
     * (@p program, @p input) under @p cfg's sampling geometry (which
     * must be sampled mode).  @p keepalive owns the Program's storage
     * (stream state points into it) and is retained by the set.
     */
    static std::shared_ptr<const CheckpointSet>
    build(std::shared_ptr<const workload::Program> keepalive,
          const workload::InputSet &input, const SimConfig &cfg,
          std::uint64_t window);

    /** True when this set was built for the same sampling geometry
     *  and run window (the sampler falls back to an inline
     *  functional walk otherwise). */
    bool matches(const SamplingConfig &sp, std::uint64_t window) const;

    const std::vector<Point> &points() const { return points_; }

  private:
    CheckpointSet() = default;

    std::shared_ptr<const workload::Program> keepalive_;
    SamplingConfig sampling_;
    std::uint64_t window_ = 0;
    std::vector<Point> points_;
};

} // namespace mcd::sim

#endif // MCD_SIM_CHECKPOINT_HH
