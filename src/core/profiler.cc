#include "core/profiler.hh"

#include "core/walker.hh"
#include "workload/stream.hh"

namespace mcd::core
{

CallTree
profileProgram(const workload::Program &program,
               const workload::InputSet &input, ContextMode mode,
               const ProfileConfig &cfg)
{
    CallTree tree(mode);
    TreeWalker walk = TreeWalker::growing(tree);
    workload::Stream stream(program, input);
    workload::StreamItem item;
    std::uint64_t instrs = 0;
    std::uint64_t pending = 0;
    while (stream.next(item)) {
        if (item.kind == workload::StreamItem::Kind::Instr) {
            ++pending;
            ++instrs;
            if (cfg.maxInstrs && instrs >= cfg.maxInstrs)
                break;
        } else {
            if (pending) {
                walk.onInstr(pending);
                pending = 0;
            }
            walk.onMarker(item.marker);
        }
    }
    if (pending)
        walk.onInstr(pending);
    tree.identifyLongRunning(cfg.longRunningThreshold);
    return tree;
}

} // namespace mcd::core
