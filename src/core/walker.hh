/**
 * @file
 * The call-context walk: the one mapping from the marker stream to
 * call-tree positions (Section 3.1).
 *
 * A growing walk builds the tree during profiling (phase 1).  A
 * following walk retraces an already-built tree without creating
 * nodes: it attributes simulation trace records to long-running
 * nodes (phase 2) and is the label-tracking core of the
 * production-run instrumentation emulation (phase 4).
 *
 * Both walks share every rule: recursion folds into the initial
 * call, loop markers re-push the current node when the tree has no
 * loop nodes, everything below an unknown step stays unknown, and an
 * exit with nothing to leave is a panic.  They differ only in how a
 * step resolves its child: a growing walk finds or creates it and
 * counts one instance; a following walk finds it or yields node 0,
 * the paper's "label 0" for paths not seen in training (Section 3.4).
 */

#ifndef MCD_CORE_WALKER_HH
#define MCD_CORE_WALKER_HH

#include <cstdint>
#include <vector>

#include "core/calltree.hh"
#include "sim/trace.hh"

namespace mcd::core
{

/**
 * Walks markers over a CallTree.
 */
class TreeWalker
{
  public:
    /** A following walk over @p tree (analyzed; must outlive the
     *  walker). */
    explicit TreeWalker(const CallTree &tree);

    /** A growing walk that builds @p tree (must outlive the
     *  walker). */
    static TreeWalker growing(CallTree &tree);

    /** Step over one marker. */
    void onMarker(const workload::Marker &m);

    /** Attribute @p n instructions to the current node (growing
     *  walks only). */
    void onInstr(std::uint64_t n = 1);

    /** Current node id; 0 = unknown path or root. */
    std::uint32_t current() const { return stack.back().node; }

    /**
     * Innermost long-running node covering the current position
     * (0 = none).  Unknown subpaths inherit the enclosing covering
     * node (frequencies simply stay as last configured).
     */
    std::uint32_t covering() const { return stack.back().covering; }

    /** Depth of the walk stack (root = 1). */
    std::size_t depth() const { return stack.size(); }

  private:
    struct Entry
    {
        std::uint32_t node = 0;
        std::uint32_t covering = 0;
    };

    /** Enter the child of the current node matching a step. */
    void step(NodeKind kind, std::uint16_t entity, std::uint16_t site);
    void push(std::uint32_t node);
    void pop(const char *marker);

    const CallTree &tree;
    /** The tree being grown; null for a following walk. */
    CallTree *grown = nullptr;
    /**
     * Walk stack.  A recursive function entry pushes the node of the
     * initial call (folding), never a new node.
     */
    std::vector<Entry> stack;
    /** Per-function on-stack counts for recursion folding. */
    std::vector<std::uint32_t> funcDepth;
};

/**
 * MarkerHandler used during the phase-2 analysis run: follows the
 * tree with zero overhead and exposes the covering long-running node
 * so the simulator stamps it into the timing trace.
 */
class NodeTracker : public sim::MarkerHandler
{
  public:
    explicit NodeTracker(const CallTree &tree) : walker(tree) {}

    sim::MarkerAction
    onMarker(const workload::Marker &m) override
    {
        walker.onMarker(m);
        return {};
    }

    std::uint32_t currentNode() const override
    {
        return walker.covering();
    }

  private:
    TreeWalker walker;
};

} // namespace mcd::core

#endif // MCD_CORE_WALKER_HH
