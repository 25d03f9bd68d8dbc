#include "core/walker.hh"

#include "util/logging.hh"

namespace mcd::core
{

using workload::Marker;
using workload::MarkerKind;

TreeWalker::TreeWalker(const CallTree &t)
    : tree(t)
{
    stack.push_back(Entry{0, 0});
}

TreeWalker
TreeWalker::growing(CallTree &t)
{
    TreeWalker w(t);
    w.grown = &t;
    return w;
}

void
TreeWalker::push(std::uint32_t node)
{
    Entry e;
    e.node = node;
    if (node != 0 && tree.node(node).longRunning)
        e.covering = node;
    else
        e.covering = stack.back().covering;
    stack.push_back(e);
}

void
TreeWalker::pop(const char *marker)
{
    if (stack.size() <= 1)
        panic("tree walker underflow on %s", marker);
    stack.pop_back();
}

void
TreeWalker::step(NodeKind kind, std::uint16_t entity,
                 std::uint16_t site)
{
    std::uint32_t cur = stack.back().node;
    std::uint32_t child = 0;  // inside an unknown subpath: stay unknown
    if (cur != 0 || stack.size() == 1) {
        if (grown) {
            child = grown->findOrCreateChild(cur, kind, entity, site);
            ++grown->nodes_[child].instances;
        } else {
            child = tree.findChild(cur, kind, entity, site);
        }
    }
    push(child);
}

void
TreeWalker::onMarker(const Marker &m)
{
    switch (m.kind) {
      case MarkerKind::CallSite:
        // Call-site context arrives on the FuncEnter marker itself.
        return;

      case MarkerKind::FuncEnter: {
        if (m.func >= funcDepth.size())
            funcDepth.resize(m.func + 1, 0);
        if (funcDepth[m.func]++ == 0) {
            step(NodeKind::Func, m.func, m.site);
            return;
        }
        // Recursive re-entry folds into the node of the initial call
        // (paper Section 3.1), or stays unknown if that was unknown.
        std::uint32_t ancestor = 0;
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            if (it->node != 0 &&
                tree.node(it->node).kind == NodeKind::Func &&
                tree.node(it->node).func == m.func) {
                ancestor = it->node;
                break;
            }
        }
        push(ancestor);
        return;
      }

      case MarkerKind::FuncExit:
        pop("FuncExit");
        if (m.func < funcDepth.size() && funcDepth[m.func] > 0)
            --funcDepth[m.func];
        return;

      case MarkerKind::LoopEnter:
        if (modeHasLoops(tree.mode()))
            step(NodeKind::Loop, m.loop, 0);
        else
            // No loop nodes: re-push the current node so Loop/Exit
            // stay balanced.
            stack.push_back(stack.back());
        return;

      case MarkerKind::LoopExit:
        pop("LoopExit");
        return;
    }
}

void
TreeWalker::onInstr(std::uint64_t n)
{
    if (!grown)
        panic("TreeWalker::onInstr on a following walk");
    grown->nodes_[stack.back().node].selfInstrs += n;
}

} // namespace mcd::core
