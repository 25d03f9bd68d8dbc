/**
 * @file
 * Tree-walker tests: faithful path following, label-0 semantics on
 * unseen paths, covering-node computation, recursion folding.
 */

#include <gtest/gtest.h>

#include "core/profiler.hh"
#include "core/walker.hh"
#include "workload/stream.hh"

using namespace mcd;
using namespace mcd::core;
using namespace mcd::workload;

namespace
{

Program
guardedProgram()
{
    ProgramBuilder b("guarded");
    InstructionMix m;
    MixId mx = b.mix(m);

    b.func("helper");
    b.loop(400, 0.0, [&] { b.block(mx, 40); });

    b.func("rare");
    b.call("helper");  // helper reachable via a second path

    b.func("main");
    b.loop(3, 0.0, [&] {
        b.call("helper");
        b.call("rare", 0, 1.0, "rare_on");
    });
    return b.build("main");
}

/** f calls itself with probability 0.6; main calls f directly and
 *  through g. */
Program
recursiveProgram()
{
    ProgramBuilder b("recursive");
    InstructionMix m;
    MixId mx = b.mix(m);

    b.func("f");
    b.block(mx, 20);
    b.call("f", 0, 0.6);

    b.func("g");
    b.call("f");

    b.func("main");
    b.loop(20, 0.0, [&] {
        b.call("f");
        b.call("g");
    });
    return b.build("main");
}

} // namespace

TEST(TreeWalker, FollowsTrainedPathsExactly)
{
    Program p = guardedProgram();
    InputSet train;
    train.with("rare_on", 0.0);
    CallTree tree =
        profileProgram(p, train, ContextMode::LFP, ProfileConfig());

    // Replay the same input: the following walk must mirror a
    // growing walk building the same tree afresh.
    TreeWalker w(tree);
    CallTree ref(ContextMode::LFP);
    TreeWalker grow = TreeWalker::growing(ref);
    Stream s(p, train);
    StreamItem item;
    while (s.next(item)) {
        if (item.kind != StreamItem::Kind::Marker)
            continue;
        grow.onMarker(item.marker);
        w.onMarker(item.marker);
        EXPECT_EQ(w.current(), grow.current());
    }
}

TEST(TreeWalker, UnknownPathMapsToLabelZero)
{
    Program p = guardedProgram();
    InputSet train, ref_in;
    train.with("rare_on", 0.0);
    ref_in.with("rare_on", 1.0);
    CallTree tree =
        profileProgram(p, train, ContextMode::LFP, ProfileConfig());

    const Function *rare = p.findFunction("rare");
    TreeWalker w(tree);
    Stream s(p, ref_in);
    StreamItem item;
    bool saw_rare = false;
    int depth_in_rare = 0;
    while (s.next(item)) {
        if (item.kind != StreamItem::Kind::Marker)
            continue;
        w.onMarker(item.marker);
        if (item.marker.kind == MarkerKind::FuncEnter &&
            item.marker.func == rare->id) {
            saw_rare = true;
            depth_in_rare = 1;
            EXPECT_EQ(w.current(), 0u)
                << "path absent from training must map to label 0";
        } else if (depth_in_rare > 0) {
            if (item.marker.kind == MarkerKind::FuncEnter)
                ++depth_in_rare;
            if (item.marker.kind == MarkerKind::FuncExit)
                --depth_in_rare;
            if (depth_in_rare > 0) {
                EXPECT_EQ(w.current(), 0u)
                    << "everything below an unknown path is unknown";
            }
        }
    }
    EXPECT_TRUE(saw_rare);
}

TEST(TreeWalker, CoveringNodeIsInnermostLongRunning)
{
    Program p = guardedProgram();
    InputSet train;
    train.with("rare_on", 0.0);
    CallTree tree =
        profileProgram(p, train, ContextMode::LFP, ProfileConfig());

    // helper's loop runs 400*40 = 16k instrs per instance: long.
    std::uint32_t loop_node = 0;
    for (auto id : tree.nodeIds())
        if (tree.node(id).kind == NodeKind::Loop &&
            tree.node(id).longRunning)
            loop_node = id;
    ASSERT_NE(loop_node, 0u);

    TreeWalker w(tree);
    Stream s(p, train);
    StreamItem item;
    bool covered = false;
    while (s.next(item)) {
        if (item.kind != StreamItem::Kind::Marker)
            continue;
        w.onMarker(item.marker);
        if (w.current() == loop_node) {
            EXPECT_EQ(w.covering(), loop_node);
            covered = true;
        }
    }
    EXPECT_TRUE(covered);
}

TEST(TreeWalker, BalancedAtProgramEnd)
{
    Program p = guardedProgram();
    InputSet in;
    in.with("rare_on", 1.0);
    CallTree tree =
        profileProgram(p, in, ContextMode::LFCP, ProfileConfig());
    TreeWalker w(tree);
    Stream s(p, in);
    StreamItem item;
    while (s.next(item))
        if (item.kind == StreamItem::Kind::Marker)
            w.onMarker(item.marker);
    EXPECT_EQ(w.depth(), 1u);
}

TEST(TreeWalker, RecursionFoldsIntoTheInitialCall)
{
    Program p = recursiveProgram();
    CallTree tree =
        profileProgram(p, InputSet{}, ContextMode::FP, ProfileConfig());
    // main, main>f, main>g and main>g>f: recursive entries add no
    // node and count no instance.
    ASSERT_EQ(tree.size(), 4u);
    const Function *f = p.findFunction("f");
    for (auto id : tree.nodeIds()) {
        if (tree.node(id).func == f->id) {
            EXPECT_EQ(tree.node(id).instances, 20u);
        }
    }

    // Following the same stream, every entry of f, recursive or not,
    // lands on one of f's two nodes.
    TreeWalker w(tree);
    Stream s(p, InputSet{});
    StreamItem item;
    int f_entries = 0;
    while (s.next(item)) {
        if (item.kind != StreamItem::Kind::Marker)
            continue;
        w.onMarker(item.marker);
        if (item.marker.kind == MarkerKind::FuncEnter &&
            item.marker.func == f->id) {
            ++f_entries;
            ASSERT_NE(w.current(), 0u);
            EXPECT_EQ(tree.node(w.current()).func, f->id);
        }
    }
    EXPECT_GT(f_entries, 40) << "the program must recurse";
    EXPECT_EQ(w.depth(), 1u);
}
