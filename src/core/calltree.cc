#include "core/calltree.hh"

#include <functional>

#include "util/logging.hh"
#include "workload/program.hh"

namespace mcd::core
{

const char *
contextModeName(ContextMode m)
{
    switch (m) {
      case ContextMode::LFCP: return "L+F+C+P";
      case ContextMode::LFP: return "L+F+P";
      case ContextMode::FCP: return "F+C+P";
      case ContextMode::FP: return "F+P";
      case ContextMode::LF: return "L+F";
      case ContextMode::F: return "F";
    }
    return "?";
}

bool
modeHasLoops(ContextMode m)
{
    switch (m) {
      case ContextMode::LFCP:
      case ContextMode::LFP:
      case ContextMode::LF:
        return true;
      default:
        return false;
    }
}

ContextMode
treeMode(ContextMode m)
{
    switch (m) {
      case ContextMode::LF: return ContextMode::LFP;
      case ContextMode::F: return ContextMode::FP;
      default: return m;
    }
}

bool
modeHasSites(ContextMode m)
{
    return m == ContextMode::LFCP || m == ContextMode::FCP;
}

bool
modeTracksPath(ContextMode m)
{
    return m != ContextMode::LF && m != ContextMode::F;
}

CallTree::CallTree(ContextMode m)
    : mode_(m)
{
    nodes_.emplace_back();  // synthetic root, id 0
}

const CallTreeNode &
CallTree::node(std::uint32_t id) const
{
    if (id >= nodes_.size())
        panic("call-tree node %u out of range", id);
    return nodes_[id];
}

std::uint32_t
CallTree::findChild(std::uint32_t parent, NodeKind kind,
                    std::uint16_t entity, std::uint16_t site) const
{
    const CallTreeNode &p = nodes_[parent];
    for (std::uint32_t c : p.children) {
        const CallTreeNode &n = nodes_[c];
        if (n.kind != kind)
            continue;
        if (kind == NodeKind::Func && n.func != entity)
            continue;
        if (kind == NodeKind::Loop && n.loop != entity)
            continue;
        if (modeHasSites(mode_) && kind == NodeKind::Func &&
            n.site != site)
            continue;
        return c;
    }
    return 0;
}

std::uint32_t
CallTree::findOrCreateChild(std::uint32_t parent, NodeKind kind,
                            std::uint16_t entity, std::uint16_t site)
{
    std::uint32_t found = findChild(parent, kind, entity, site);
    if (found)
        return found;
    CallTreeNode n;
    n.id = static_cast<std::uint32_t>(nodes_.size());
    n.kind = kind;
    n.parent = parent;
    if (kind == NodeKind::Func) {
        n.func = entity;
        n.site = modeHasSites(mode_) ? site : 0;
    } else {
        n.loop = entity;
        // A loop's owning function is its enclosing func node's func.
        n.func = nodes_[parent].func;
    }
    nodes_.push_back(n);
    nodes_[parent].children.push_back(n.id);
    return n.id;
}

void
CallTree::identifyLongRunning(std::uint64_t threshold_instrs)
{
    // Iterative post-order DFS from the root.
    struct Item
    {
        std::uint32_t id;
        bool expanded;
    };
    std::vector<Item> work;
    work.push_back({0, false});
    while (!work.empty()) {
        Item it = work.back();
        work.pop_back();
        CallTreeNode &n = nodes_[it.id];
        if (!it.expanded) {
            work.push_back({it.id, true});
            for (std::uint32_t c : n.children)
                work.push_back({c, false});
            continue;
        }
        n.inclInstrs = n.selfInstrs;
        std::uint64_t covered = 0;
        for (std::uint32_t c : n.children) {
            n.inclInstrs += nodes_[c].inclInstrs;
            covered += nodes_[c].longCovered;
        }
        if (it.id == 0) {
            n.longRunning = false;
            n.longCovered = covered;
            continue;
        }
        std::uint64_t excl = n.inclInstrs - covered;
        n.avgExclusive =
            n.instances
                ? static_cast<double>(excl) /
                      static_cast<double>(n.instances)
                : 0.0;
        n.longRunning = n.avgExclusive >=
                        static_cast<double>(threshold_instrs);
        n.longCovered = n.longRunning ? n.inclInstrs : covered;
    }
}

std::vector<std::uint32_t>
CallTree::nodeIds() const
{
    std::vector<std::uint32_t> ids;
    ids.reserve(nodes_.size() - 1);
    for (std::uint32_t i = 1; i < nodes_.size(); ++i)
        ids.push_back(i);
    return ids;
}

std::vector<std::uint32_t>
CallTree::longRunningIds() const
{
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 1; i < nodes_.size(); ++i)
        if (nodes_[i].longRunning)
            ids.push_back(i);
    return ids;
}

std::string
CallTree::signature(std::uint32_t id,
                    const workload::Program &prog) const
{
    if (id == 0 || id >= nodes_.size())
        return "<root>";
    std::string sig;
    std::function<void(std::uint32_t)> build =
        [&](std::uint32_t cur) {
            const CallTreeNode &n = nodes_[cur];
            if (n.parent != 0)
                build(n.parent);
            if (!sig.empty())
                sig += '>';
            if (n.kind == NodeKind::Func) {
                sig += prog.function(n.func).name;
                if (modeHasSites(mode_))
                    sig += strprintf("@%u", n.site);
            } else {
                sig += strprintf("L%u", n.loop);
            }
        };
    build(id);
    return sig;
}

} // namespace mcd::core
