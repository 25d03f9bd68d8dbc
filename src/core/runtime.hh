/**
 * @file
 * Production-run instrumentation runtime (Section 3.4).
 *
 * Emulates the code injected by the binary editor: call-chain label
 * tracking via the (prev-label x subroutine) lookup table in the path
 * modes, statically-known reconfiguration writes in the L+F and F
 * modes, and saved/restored reconfiguration register values at node
 * exits.  Each executed instrumentation point charges the fixed
 * cycle/energy penalties the paper derives from a hand-instrumented
 * microbenchmark (~9 cycles for a label-table access, ~17 for a
 * reconfiguration point).
 */

#ifndef MCD_CORE_RUNTIME_HH
#define MCD_CORE_RUNTIME_HH

#include <cstdint>
#include <vector>

#include "core/editor.hh"
#include "core/walker.hh"

namespace mcd::core
{

/** Per-point overhead charges (paper Section 3.4). */
struct RuntimeCosts
{
    /** Subroutine prologue/epilogue label-table access. */
    int funcTrackCycles = 9;
    /** Loop header/footer label offset update. */
    int loopTrackCycles = 2;
    /** Call-site label offset update (C modes). */
    int siteTrackCycles = 1;
    /** Additional cost of a reconfiguration (frequency-table access
     *  plus control-register write): 9 + 8 = the paper's ~17. */
    int reconfigExtraCycles = 8;
    /** Statically-known reconfiguration in L+F / F: the handful of
     *  instructions schedule into empty issue slots (paper: overhead
     *  "virtually zero"). */
    int staticReconfigCycles = 1;
    /** Energy per overhead cycle (pJ at Vmax). */
    double energyPjPerCycle = 260.0;
};

/** Dynamic instrumentation execution counts (Table 4). */
struct RuntimeStats
{
    std::uint64_t dynReconfigPoints = 0;
    std::uint64_t dynInstrPoints = 0;
};

/**
 * The instrumentation runtime: installed as the simulator's
 * MarkerHandler during production runs of the edited binary.
 */
class ProfileRuntime : public sim::MarkerHandler
{
  public:
    /**
     * @param tree  analyzed training call tree (path modes walk it)
     * @param plan  instrumentation plan from the editor
     * @param costs overhead model
     */
    ProfileRuntime(const CallTree &tree,
                   const InstrumentationPlan &plan,
                   const RuntimeCosts &costs = RuntimeCosts());

    sim::MarkerAction onMarker(const workload::Marker &m) override;

    std::uint32_t currentNode() const override;

    const RuntimeStats &stats() const { return stats_; }

  private:
    /** An executed instrumentation point costing @p cycles. */
    sim::MarkerAction instrPoint(int cycles);
    /** An executed reconfiguration point costing @p cycles: on entry
     *  it saves the register and writes @p freqs, on exit it restores
     *  the value the matching entry saved. */
    sim::MarkerAction reconfigPoint(bool enter, const sim::FreqSet &freqs,
                                    int cycles);

    const InstrumentationPlan &plan;
    RuntimeCosts costs;
    bool path;
    TreeWalker walker;
    /** Shadow of the reconfiguration register (last written value). */
    sim::FreqSet shadow;
    /** Saved register values for restore-at-exit. */
    std::vector<sim::FreqSet> saved;
    RuntimeStats stats_;
};

} // namespace mcd::core

#endif // MCD_CORE_RUNTIME_HH
