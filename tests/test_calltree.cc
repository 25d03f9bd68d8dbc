/**
 * @file
 * Call-tree tests, including the paper's Figure 2 worked example:
 * main calls initm twice; initm contains loop L1 containing loop L2
 * which calls drand48.  The four context definitions yield four
 * different trees.
 */

#include <gtest/gtest.h>

#include "core/calltree.hh"
#include "core/profiler.hh"
#include "core/walker.hh"
#include "workload/program.hh"
#include "workload/stream.hh"

using namespace mcd;
using namespace mcd::core;
using namespace mcd::workload;

namespace
{

/** The paper's Figure 2 program. */
Program
figure2Program()
{
    ProgramBuilder b("fig2");
    InstructionMix m;
    MixId mx = b.mix(m);

    b.func("drand48");
    b.block(mx, 12);

    b.func("initm");
    b.loop(10, 0.0, [&] {          // L1 (loop id 0)
        b.loop(10, 0.0, [&] {      // L2 (loop id 1)
            b.call("drand48");
        });
    });

    b.func("main");
    b.call("initm");  // call site A
    b.call("initm");  // call site B
    return b.build("main");
}

CallTree
buildTree(const Program &p, ContextMode mode)
{
    CallTree tree(mode);
    TreeWalker walk = TreeWalker::growing(tree);
    Stream s(p, InputSet{});
    StreamItem item;
    while (s.next(item)) {
        if (item.kind == StreamItem::Kind::Marker)
            walk.onMarker(item.marker);
        else
            walk.onInstr();
    }
    return tree;
}

int
countNodes(const CallTree &t, NodeKind kind, std::uint16_t entity)
{
    int n = 0;
    for (auto id : t.nodeIds()) {
        const auto &node = t.node(id);
        if (node.kind != kind)
            continue;
        if (kind == NodeKind::Func && node.func == entity)
            ++n;
        if (kind == NodeKind::Loop && node.loop == entity)
            ++n;
    }
    return n;
}

} // namespace

TEST(CallTree, Figure2FullContext)
{
    Program p = figure2Program();
    CallTree t = buildTree(p, ContextMode::LFCP);
    const Function *initm = p.findFunction("initm");
    const Function *drand = p.findFunction("drand48");
    // Two initm children of main (distinct call sites), each with
    // L1 > L2 > one drand48 child: 2*(1 + 1 + 1 + 1) + 1 = 9 nodes.
    EXPECT_EQ(countNodes(t, NodeKind::Func, initm->id), 2);
    EXPECT_EQ(countNodes(t, NodeKind::Func, drand->id), 2);
    EXPECT_EQ(t.size(), 9u);
}

TEST(CallTree, Figure2NoCallSites)
{
    Program p = figure2Program();
    CallTree t = buildTree(p, ContextMode::LFP);
    const Function *initm = p.findFunction("initm");
    // Without call-site differentiation the two initm calls merge.
    EXPECT_EQ(countNodes(t, NodeKind::Func, initm->id), 1);
    EXPECT_EQ(t.size(), 5u);  // main, initm, L1, L2, drand48
}

TEST(CallTree, Figure2NoLoops)
{
    Program p = figure2Program();
    CallTree t = buildTree(p, ContextMode::FCP);
    // main, 2x initm, 2x drand48 — no loop nodes.
    EXPECT_EQ(t.size(), 5u);
    for (auto id : t.nodeIds())
        EXPECT_EQ(t.node(id).kind, NodeKind::Func);
}

TEST(CallTree, Figure2Cct)
{
    Program p = figure2Program();
    CallTree t = buildTree(p, ContextMode::FP);
    // The CCT of Ammons et al.: main, initm, drand48.
    EXPECT_EQ(t.size(), 3u);
}

TEST(CallTree, DrandInstancesSuperimposed)
{
    Program p = figure2Program();
    CallTree t = buildTree(p, ContextMode::LFP);
    const Function *drand = p.findFunction("drand48");
    for (auto id : t.nodeIds()) {
        const auto &n = t.node(id);
        if (n.kind == NodeKind::Func && n.func == drand->id) {
            // One node, 2 calls x 10 x 10 loop iterations.
            EXPECT_EQ(n.instances, 200u);
        }
    }
}

TEST(CallTree, InclusiveCountsRollUp)
{
    Program p = figure2Program();
    CallTree t = buildTree(p, ContextMode::LFCP);
    t.identifyLongRunning(1'000'000);  // nothing qualifies
    // main's inclusive count equals the whole program.
    std::uint64_t total = 0;
    for (auto id : t.nodeIds())
        total += t.node(id).selfInstrs;
    for (auto id : t.nodeIds()) {
        if (t.node(id).parent == 0) {
            EXPECT_EQ(t.node(id).inclInstrs, total);
        }
    }
}

TEST(CallTree, LongRunningExcludesLongChildren)
{
    // Figure 3's principle: a parent whose own work is small must
    // not become long-running just because a child is long.
    ProgramBuilder b("fig3ish");
    InstructionMix m;
    MixId mx = b.mix(m);
    b.func("hot");
    b.loop(600, 0.0, [&] { b.block(mx, 40); });  // 24k per call
    b.func("wrapper");
    b.block(mx, 50);  // tiny own work
    b.call("hot");
    b.func("main");
    b.loop(3, 0.0, [&] { b.call("wrapper"); });
    Program p = b.build("main");

    CallTree t = buildTree(p, ContextMode::FP);
    t.identifyLongRunning(10'000);
    const Function *hot = p.findFunction("hot");
    const Function *wrapper = p.findFunction("wrapper");
    for (auto id : t.nodeIds()) {
        const auto &n = t.node(id);
        if (n.kind != NodeKind::Func)
            continue;
        if (n.func == hot->id) {
            EXPECT_TRUE(n.longRunning);
        }
        if (n.func == wrapper->id) {
            EXPECT_FALSE(n.longRunning)
                << "wrapper's own 50 instrs must not qualify";
        }
    }
}

TEST(CallTree, SignaturesIdentifyPaths)
{
    Program p = figure2Program();
    CallTree t = buildTree(p, ContextMode::LFCP);
    std::set<std::string> sigs;
    for (auto id : t.nodeIds())
        sigs.insert(t.signature(id, p));
    EXPECT_EQ(sigs.size(), t.size()) << "signatures must be unique";
    // Sites distinguish the two initm paths: two distinct signatures
    // of the form "main>initm@<site>".
    std::set<std::string> initm_sigs;
    for (const auto &s : sigs)
        if (s.find(">initm@") != std::string::npos &&
            s.find('L') == std::string::npos)
            initm_sigs.insert(s);
    EXPECT_EQ(initm_sigs.size(), 2u);
}

TEST(Profiler, CapsInstructionCount)
{
    Program p = figure2Program();
    ProfileConfig cfg;
    cfg.maxInstrs = 100;
    CallTree t = profileProgram(p, InputSet{}, ContextMode::LFCP, cfg);
    std::uint64_t total = 0;
    for (auto id : t.nodeIds())
        total += t.node(id).selfInstrs;
    EXPECT_LE(total, 110u);
}

TEST(ContextMode, PredicateTable)
{
    EXPECT_TRUE(modeHasLoops(ContextMode::LFCP));
    EXPECT_TRUE(modeHasLoops(ContextMode::LF));
    EXPECT_FALSE(modeHasLoops(ContextMode::FP));
    EXPECT_TRUE(modeHasSites(ContextMode::LFCP));
    EXPECT_FALSE(modeHasSites(ContextMode::LFP));
    EXPECT_TRUE(modeTracksPath(ContextMode::FP));
    EXPECT_FALSE(modeTracksPath(ContextMode::F));
    EXPECT_STREQ(contextModeName(ContextMode::LFCP), "L+F+C+P");
}
