/**
 * @file
 * Simulator observation and control interfaces: primitive-event
 * timing records (for the shaker's dependence DAG), marker handlers
 * (for the profile-driven runtime), interval hooks (for the on-line
 * controller) and frequency schedules (for the off-line oracle).
 */

#ifndef MCD_SIM_TRACE_HH
#define MCD_SIM_TRACE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "util/types.hh"
#include "workload/instr.hh"

namespace mcd::sim
{

/**
 * Per-committed-instruction timing record: the stage timestamps from
 * which the analysis phase reconstructs the paper's "primitive
 * events" (fetch, execute, memory access, commit) and their
 * functional/data dependences.  All times in ps.
 */
struct InstrTiming
{
    std::uint64_t seq = 0;      ///< dynamic sequence (1-based)
    std::uint32_t node = 0;     ///< call-tree node at fetch (0 = none)
    workload::InstrClass cls = workload::InstrClass::IntAlu;
    Domain domain = Domain::Integer;  ///< execution domain
    std::uint64_t dep1 = 0;     ///< producer seq of source 1 (0=none)
    std::uint64_t dep2 = 0;     ///< producer seq of source 2 (0=none)
    Tick fetch = 0;
    Tick dispatch = 0;
    Tick issue = 0;
    Tick execDone = 0;          ///< FU result ready (loads: addr done)
    Tick memStart = 0;          ///< loads only
    Tick memDone = 0;           ///< loads only: data return
    Tick commit = 0;
    bool l2Miss = false;
    bool mispredict = false;
};

/** Receiver of committed-instruction timing records. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void onInstr(const InstrTiming &t) = 0;
};

/** Frequencies for the four scaled domains, in MHz. */
using FreqSet = std::array<Mhz, NUM_SCALED_DOMAINS>;

/**
 * Effect of a structural marker on the pipeline, as computed by the
 * instrumentation runtime (Section 3.4): possible front-end stall
 * cycles and energy for the injected instructions, and possibly a
 * write to the MCD reconfiguration register.
 */
struct MarkerAction
{
    int stallCycles = 0;   ///< front-end cycles of overhead
    double energyPj = 0.0; ///< energy of injected instructions
    bool reconfig = false; ///< write the reconfiguration register
    FreqSet freqs{};       ///< target frequencies when reconfig
};

/**
 * Consumer of structural markers during simulation.  The
 * profile-driven runtime implements this; the profiler's tree builder
 * implements it with a no-op action.
 */
class MarkerHandler
{
  public:
    virtual ~MarkerHandler() = default;

    /** Called at fetch of each marker, in program order. */
    virtual MarkerAction onMarker(const workload::Marker &m) = 0;

    /**
     * Current call-tree node id, stamped into InstrTiming records of
     * subsequently fetched instructions (0 = untracked).
     */
    virtual std::uint32_t currentNode() const { return 0; }
};

/** Frequency control interface exposed to interval controllers. */
class DvfsControl
{
  public:
    virtual ~DvfsControl() = default;
    virtual void setTarget(Domain d, Mhz f) = 0;
    virtual Mhz freq(Domain d) const = 0;
    virtual Mhz targetFreq(Domain d) const = 0;
};

/** Per-interval statistics handed to interval controllers. */
struct IntervalStats
{
    std::uint64_t instrs = 0;   ///< committed in this interval
    Tick timePs = 0;            ///< wall time of the interval
    double ipc = 0.0;           ///< committed instrs per front-end cycle
    /** Average issue-queue occupancy (entries) per scaled domain;
     *  index by Domain. FrontEnd slot holds fetch-queue occupancy. */
    std::array<double, NUM_SCALED_DOMAINS> queueOcc{};
    /** Average reorder-buffer occupancy (entries). */
    double robOcc = 0.0;
};

/**
 * Interval callback (the hardware mechanism of the on-line
 * attack/decay controller polls counters at fixed intervals).
 */
class IntervalHook
{
  public:
    virtual ~IntervalHook() = default;
    virtual void onInterval(const IntervalStats &s, DvfsControl &ctl) = 0;
};

/** One point of a precomputed frequency schedule (off-line oracle). */
struct SchedulePoint
{
    std::uint64_t atInstr = 0;  ///< apply when this many instrs committed
    FreqSet freqs{};
};

/** Aggregate results of one simulation run. */
struct RunResult
{
    Tick timePs = 0;
    double chipEnergyNj = 0.0;
    double dramEnergyNj = 0.0;
    std::uint64_t instrs = 0;
    std::uint64_t feCycles = 0;
    double ipc = 0.0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t reconfigs = 0;
    std::uint64_t overheadCycles = 0;  ///< instrumentation stalls
    /** Clock edges the kernel fast-forwarded instead of processing
     *  (0 when SimConfig::fastForward is off). */
    std::uint64_t ffEdges = 0;
    /** Sampled-mode reporting (sim/sampling.hh); all zero/false in
     *  exact mode.  timePs/energies are then detailed measurements
     *  plus the per-instruction extrapolation over skipped spans,
     *  and the CI fields carry the 95% half-width of that estimate
     *  (never below the SamplingConfig::ciBiasPct floor). */
    bool sampled = false;
    std::uint64_t sampleIntervals = 0;  ///< measured probes (K)
    std::uint64_t skippedInstrs = 0;    ///< functionally skipped
    Tick timeCiPs = 0;
    double energyCiNj = 0.0;
    FreqSet avgFreq{};
    std::array<double, NUM_DOMAINS> domainEnergyNj{};
    /** Energy * delay product (nJ * ps), convenience. */
    double energyDelay() const
    {
        return chipEnergyNj * static_cast<double>(timePs);
    }
};

} // namespace mcd::sim

#endif // MCD_SIM_TRACE_HH
