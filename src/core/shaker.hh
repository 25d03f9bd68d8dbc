/**
 * @file
 * Phase 2: the "shaker" algorithm (Section 3.2).
 *
 * From the timing trace of a full-speed simulation we build, per
 * long-running node, a dependence DAG of primitive events (fetch,
 * dispatch, execute, memory access, commit — temporally contiguous
 * work in one hardware unit on behalf of one instruction) connected
 * by functional and data dependences.  The shaker walks the DAG
 * alternately backward and forward with a decaying power threshold,
 * stretching high-power off-critical-path events into available
 * slack — as if each event could run at its own, lower frequency —
 * down to at most 1/4 of nominal frequency.  The result is a
 * per-domain histogram of cycles versus frequency.
 */

#ifndef MCD_CORE_SHAKER_HH
#define MCD_CORE_SHAKER_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "power/power.hh"
#include "sim/config.hh"
#include "sim/trace.hh"
#include "util/histogram.hh"
#include "util/types.hh"

namespace mcd::core
{

/** Shaker parameters. */
struct ShakerConfig
{
    /** Maximum alternating passes over the DAG. */
    int maxPasses = 20;
    /** Multiplicative power-threshold decay per pass. */
    double thresholdDecay = 0.8;
    /** Maximum stretch factor (paper: down to 1/4 frequency). */
    double maxStretch = 4.0;
    /** Frequency the analysis run executed at (all domains). */
    Mhz nominalMhz = 1000.0;
    /** Frequency discretization for the output histograms. */
    FreqSteps steps;
    /**
     * L1/L2 hit latencies (memory-domain cycles), used to split load
     * miss events into the scalable cache portion and the fixed
     * external-memory portion (the external domain never scales).
     */
    int l1LatencyCycles = 2;
    int l2LatencyCycles = 12;
    /**
     * Structural resource capacities.  The DAG carries occupancy
     * edges (e.g. instruction i cannot dispatch before instruction
     * i - robSize commits) so the shaker does not see phantom slack
     * on overlapped long-latency operations.
     */
    int robSize = 80;
    int lsqSize = 64;
    int intIqSize = 20;
    int fpIqSize = 15;
    /** Bandwidth (width-aware) chain widths. */
    int fetchWidth = 4;
    int retireWidth = 11;
    int intIssueWidth = 4;
    int fpIssueWidth = 2;
    int memIssueWidth = 2;
    /** Front-end refill cycles after a branch mispredict. */
    int mispredictPenalty = 7;
    /**
     * Initial per-domain event power factors (relative domain power,
     * Section 3.2).
     */
    std::array<double, NUM_SCALED_DOMAINS> domainPowerWeight{
        {0.30, 0.25, 0.15, 0.30}};
};

/**
 * @p base with every field the simulated machine determines taken
 * from it: nominal frequency, cache latencies, structure sizes,
 * widths and mispredict penalty from @p sim, per-domain power
 * weights from @p power.  The one SimConfig→ShakerConfig derivation,
 * shared by the profile pipeline and the off-line oracle.
 */
ShakerConfig shakerConfigFor(const ShakerConfig &base,
                             const sim::SimConfig &sim,
                             const power::PowerConfig &power);

/** Accumulated per-node analysis output. */
struct NodeHistograms
{
    std::array<FreqHistogram, NUM_SCALED_DOMAINS> hist;
    Tick spanPs = 0;           ///< wall time of analyzed segments
    std::uint64_t instrs = 0;  ///< instructions analyzed
    int segments = 0;

    NodeHistograms()
        : hist{FreqHistogram(), FreqHistogram(), FreqHistogram(),
               FreqHistogram()}
    {
    }
};

/**
 * Builds the event DAG for one contiguous trace segment and runs the
 * shaker over it, accumulating histograms.
 *
 * The DAG grows one committed-instruction record at a time (add()),
 * so a trace sink can feed the analyzer as the run commits and keep
 * no copy of the segment; finish() shakes what was added.  The DAG
 * is built as an edge list and turned into CSR (compressed sparse
 * row) successor and predecessor arrays.  Those arrays, the events
 * and the structural-chain indices are scratch owned by the analyzer
 * and reused across segments, so an analysis allocates only when its
 * segment outgrows every earlier one; the scratch is freed with the
 * analyzer.
 */
class SegmentAnalyzer
{
  public:
    explicit SegmentAnalyzer(const ShakerConfig &cfg = ShakerConfig());

    /**
     * Add the next record of the segment being built.  A segment is
     * a contiguous slice of one run's commit stream, so its sequence
     * numbers are consecutive.
     */
    void add(const sim::InstrTiming &t);

    /** Records added since the last finish(). */
    std::size_t pending() const { return valueEvent.size(); }

    /**
     * Shake the segment added since the last finish(), add the
     * result into @p out and start an empty segment.  Does nothing
     * when no record was added.
     */
    void finish(NodeHistograms &out);

    /** add() every record of @p segment, then finish(@p out). */
    void analyze(const std::vector<sim::InstrTiming> &segment,
                 NodeHistograms &out);

    const ShakerConfig &config() const { return cfg; }

  private:
    /**
     * One primitive event in the dependence DAG.  Its power factor
     * is not stored: it starts at its domain's weight (0 for
     * External, never stretched) and falls as 1/stretch^2.
     */
    struct Event
    {
        Domain domain = Domain::FrontEnd;
        double start = 0.0;     ///< current position (ps)
        double nominalDur = 0;  ///< duration at nominal frequency (ps)
        double stretch = 1.0;   ///< current stretch factor (>= 1)

        double dur() const { return nominalDur * stretch; }
        double end() const { return start + dur(); }
    };

    std::uint32_t addEvent(Domain d, double start, double nominal_dur);
    void addEdge(std::uint32_t from, std::uint32_t to);
    void buildCsr();

    ShakerConfig cfg;
    /** One nominal-frequency cycle (ps). */
    double cyclePs;
    /** Initial power factor per domain, indexed by Domain. */
    std::array<double, NUM_DOMAINS> pf0{};

    // --- the segment being added ---
    std::uint64_t firstSeq = 0;
    Tick segStart = 0;    ///< first record's fetch
    Tick lastCommit = 0;  ///< latest record's commit
    /** A mispredicted branch's exec event, whose refill the next
     *  fetch waits on (UINT32_MAX: none), and the refill's start. */
    std::uint32_t pendingRedirectFrom = UINT32_MAX;
    double pendingRedirectStart = 0.0;

    // --- per-segment scratch, reused across segments ---
    std::vector<Event> ev;
    /** Edges in insertion order; buildCsr() groups them per event
     *  without reordering an event's own edges. */
    std::vector<std::uint32_t> edgeFrom, edgeTo;
    /** CSR adjacency: event i's successors are
     *  succIdx[succOff[i] .. succOff[i + 1]), likewise predecessors. */
    std::vector<std::uint32_t> succOff, succIdx, predOff, predIdx;
    std::vector<std::uint32_t> cursor;  ///< CSR fill positions
    /** Per instruction of the segment: the event whose completion
     *  carries its value (exec, or the memory access for loads). */
    std::vector<std::uint32_t> valueEvent;
    /** Structural chains: fetch and commit events per instruction,
     *  exec events per execution domain, all in commit order. */
    std::vector<std::uint32_t> fetchEvents, commitEvents;
    std::array<std::vector<std::uint32_t>, NUM_SCALED_DOMAINS>
        domainExec;
};

/**
 * TraceSink that slices the committed-instruction stream into
 * per-node segments (contiguous runs of the same covering node id)
 * and runs the shaker on each, with caps to bound analysis cost.
 */
class AnalysisCollector : public sim::TraceSink
{
  public:
    struct Limits
    {
        std::uint64_t maxSegmentInstrs = 20'000;
        std::uint64_t maxInstrsPerNode = 60'000;
        int maxSegmentsPerNode = 24;
    };

    explicit AnalysisCollector(const ShakerConfig &cfg)
        : AnalysisCollector(cfg, Limits{})
    {
    }
    AnalysisCollector(const ShakerConfig &cfg, const Limits &limits);

    void onInstr(const sim::InstrTiming &t) override;

    /** Flush the trailing segment and return per-node histograms. */
    std::map<std::uint32_t, NodeHistograms> finish();

  private:
    void flush();

    /** Holds the current node's open segment as it is added. */
    SegmentAnalyzer analyzer;
    Limits limits;
    std::uint32_t curNode = 0;
    std::map<std::uint32_t, NodeHistograms> results;
};

} // namespace mcd::core

#endif // MCD_CORE_SHAKER_HH
