/**
 * @file
 * Call trees with configurable context definitions (Section 3.1).
 *
 * A call-tree node is a subroutine or loop *in context*: the path of
 * callers (and optionally call sites) back to main.  The tree is a
 * compressed dynamic call trace: multiple instances of the same path
 * are superimposed, and recursion is folded into the initial call.
 * This extends the calling context tree of Ammons et al. with loop
 * nodes and call-site differentiation, exactly as the paper does.
 *
 * The tree is data; the rules that map markers to tree positions
 * live in TreeWalker (core/walker.hh), which grows the tree during
 * profiling and follows it afterwards.
 */

#ifndef MCD_CORE_CALLTREE_HH
#define MCD_CORE_CALLTREE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/instr.hh"

namespace mcd::workload
{
struct Program;
} // namespace mcd::workload

namespace mcd::core
{

/**
 * The six context definitions evaluated in the paper: L = loop nodes,
 * F = function nodes (always present), C = call-site differentiation,
 * P = call-path tracking at run time.  LF and F use the LFP/FP trees
 * for analysis but ignore calling history during production runs
 * (Section 3.1).
 */
enum class ContextMode
{
    LFCP,
    LFP,
    FCP,
    FP,
    LF,
    F,
};

/** Printable name ("L+F+C+P", ...). */
const char *contextModeName(ContextMode m);

/** Whether the tree for this mode contains loop nodes. */
bool modeHasLoops(ContextMode m);
/** The mode whose tree this mode analyzes: LF -> LFP, F -> FP, any
 *  other mode itself.  Modes with one tree mode build the same tree
 *  and differ only in the run-time rule (modeTracksPath). */
ContextMode treeMode(ContextMode m);
/** Whether the tree distinguishes call sites. */
bool modeHasSites(ContextMode m);
/** Whether run-time instrumentation tracks the call path. */
bool modeTracksPath(ContextMode m);

/** Kind of a call-tree node. */
enum class NodeKind : std::uint8_t { Func, Loop };

/**
 * One call-tree node.  Id 0 is reserved: it denotes "unknown path"
 * (the paper's label 0) and is used for the synthetic root's
 * children lookups.
 */
struct CallTreeNode
{
    std::uint32_t id = 0;
    NodeKind kind = NodeKind::Func;
    std::uint16_t func = 0;   ///< function id (owning function for loops)
    std::uint16_t loop = 0;   ///< loop id (kind == Loop)
    std::uint16_t site = 0;   ///< distinguishing call site (C modes)
    std::uint32_t parent = 0; ///< 0 = child of the synthetic root
    std::vector<std::uint32_t> children;

    std::uint64_t instances = 0;   ///< dynamic instances
    std::uint64_t selfInstrs = 0;  ///< instrs at this node exclusively
    std::uint64_t inclInstrs = 0;  ///< incl. children (computed)
    /** Instrs covered by maximal long-running nodes in the subtree. */
    std::uint64_t longCovered = 0;
    double avgExclusive = 0.0;  ///< avg instance, excl. long children
    bool longRunning = false;
};

/**
 * Call tree: plain data, grown from the marker stream during
 * profiling by a growing TreeWalker (core/walker.hh), then analyzed
 * for long-running nodes.
 */
class CallTree
{
  public:
    /**
     * @param mode context definition (determines loop/site keying)
     */
    explicit CallTree(ContextMode mode = ContextMode::LFCP);

    /**
     * Identify long-running nodes: working leaf-up, a node is
     * long-running when its average dynamic instance — excluding
     * instructions in long-running children — reaches
     * @p threshold_instrs (the paper uses 10,000).
     */
    void identifyLongRunning(std::uint64_t threshold_instrs = 10000);

    // --- inspection ---

    ContextMode mode() const { return mode_; }
    /** Number of real nodes (excluding the synthetic root). */
    std::size_t size() const { return nodes_.size() - 1; }
    const CallTreeNode &node(std::uint32_t id) const;
    /** All node ids in creation order (1-based). */
    std::vector<std::uint32_t> nodeIds() const;
    /** Ids of long-running nodes. */
    std::vector<std::uint32_t> longRunningIds() const;

    /**
     * Canonical context signature of a node: the path of
     * (kind, entity, site) steps from the root, e.g.
     * "main>L2>drand48@1".  Two trees built from different runs can
     * be compared by signature (used for Table 3).
     */
    std::string signature(std::uint32_t id,
                          const workload::Program &prog) const;

  private:
    /** The walker resolves steps to children and, when growing,
     *  creates them and counts instances and instructions. */
    friend class TreeWalker;

    /** The child of @p parent matching a step; 0 when absent. */
    std::uint32_t findChild(std::uint32_t parent, NodeKind kind,
                            std::uint16_t entity,
                            std::uint16_t site) const;
    std::uint32_t findOrCreateChild(std::uint32_t parent, NodeKind kind,
                                    std::uint16_t entity,
                                    std::uint16_t site);

    ContextMode mode_;
    std::vector<CallTreeNode> nodes_;  ///< [0] = synthetic root
};

} // namespace mcd::core

#endif // MCD_CORE_CALLTREE_HH
