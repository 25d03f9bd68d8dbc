/**
 * @file
 * Simulator configuration: the architectural parameters of Table 1 of
 * the paper (Alpha 21264-like core, XScale-like voltage/frequency
 * scaling), plus modeling knobs.
 */

#ifndef MCD_SIM_CONFIG_HH
#define MCD_SIM_CONFIG_HH

#include <cstdint>

#include "sim/sampling.hh"
#include "util/types.hh"

namespace mcd::sim
{

/** Architectural and DVFS parameters (defaults = paper's Table 1). */
struct SimConfig
{
    // --- pipeline widths ---
    int fetchWidth = 4;
    int dispatchWidth = 4;   ///< decode/dispatch width ("Decode 4")
    int retireWidth = 11;

    // --- window sizes ---
    int robSize = 80;
    int intIqSize = 20;
    int fpIqSize = 15;
    int lsqSize = 64;
    int intRegs = 72;
    int fpRegs = 72;

    // --- functional units ---
    int intAlus = 4;
    int intMulDiv = 1;
    int fpAlus = 2;
    int fpMulDiv = 1;
    int memPorts = 2;

    // --- per-domain issue widths (sum ~ Table 1's issue width 6) ---
    int intIssueWidth = 4;
    int fpIssueWidth = 2;
    int memIssueWidth = 2;

    // --- execution latencies (cycles in the owning domain) ---
    int latIntAlu = 1;
    int latIntMul = 3;
    int latIntDiv = 12;
    int latFpAdd = 2;
    int latFpMul = 4;
    int latFpDiv = 12;
    int latFpSqrt = 18;

    // --- front end ---
    int decodeDepth = 2;       ///< fetch-to-dispatch stages
    int mispredictPenalty = 7; ///< extra front-end cycles on redirect
    int fetchQueueSize = 16;

    // --- memory hierarchy ---
    std::uint32_t lineSize = 64;
    std::uint32_t l1iSizeKb = 64;
    int l1iWays = 2;
    std::uint32_t l1dSizeKb = 64;
    int l1dWays = 2;
    int l1Latency = 2;          ///< cycles (memory domain)
    std::uint32_t l2SizeKb = 1024;
    int l2Ways = 1;             ///< direct mapped
    int l2Latency = 12;         ///< cycles (memory domain)
    Tick memLatencyPs = 60000;  ///< main-memory access (external, fixed)
    Tick memBusPs = 4000;       ///< per-request bus occupancy

    // --- clocking / DVFS (XScale-like) ---
    Mhz maxMhz = 1000.0;
    Mhz minMhz = 250.0;
    Volt maxVolt = 1.20;
    Volt minVolt = 0.65;
    double rampNsPerMhz = 73.3;    ///< frequency change speed
    Tick jitterPs = 110;           ///< clock jitter bound (normal)
    double syncWindowFrac = 0.3;   ///< fraction of faster clock period

    /**
     * Single-clock mode: all domains share aligned edges and no
     * synchronization penalties apply (used for the MCD-penalty and
     * synchronization-ablation experiments).
     */
    bool singleClock = false;

    /** Seed for clock jitter randomization. */
    std::uint64_t jitterSeed = 7777;

    /**
     * Idle-edge fast-forward: the simulation kernel parks domains
     * that provably have no work (empty issue queue, stable
     * frequency) and replays their skipped edges in batch when they
     * wake.  Edge times, instruction timing and every counter are
     * bit-identical to the slow path — each skipped edge still
     * consumes its draw of the clock's jitter sequence and the ramp
     * never runs while parked — only the floating-point summation
     * order of energy totals differs (below any reported
     * precision).  Part of the memo-cache fingerprint so outcomes
     * from the two modes never mix.
     */
    bool fastForward = true;

    /**
     * Sampling mode and geometry (sim/sampling.hh): exact by default;
     * sampled mode trades bounded error for 10-100x per-cell speed.
     * All fields fingerprinted (CACHE_VERSION v8).
     */
    SamplingConfig sampling;

    /** Safety: abort if no instruction commits for this many ps. */
    // mcd-lint: allow(fingerprint-complete): a tripped watchdog
    // aborts the process before any outcome exists, so the threshold
    // can never shape a cached line (CACHE_VERSION v6 note,
    // src/exp/experiment.cc).
    Tick watchdogPs = 400ULL * 1000 * 1000;

    /** Supply voltage for frequency @p f (linear XScale-like model). */
    Volt voltageFor(Mhz f) const;
};

} // namespace mcd::sim

#endif // MCD_SIM_CONFIG_HH
