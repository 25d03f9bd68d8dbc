/**
 * @file
 * Tests for the program IR and builder: id/pc assignment, layouts,
 * structural errors, input-set knobs.
 */

#include <gtest/gtest.h>

#include <functional>

#include "workload/author.hh"
#include "workload/program.hh"

using namespace mcd::workload;

namespace
{

Program
tinyProgram()
{
    ProgramBuilder b("tiny");
    InstructionMix m;
    m.set(InstrClass::Load, 0.2).branches(0.1, 0.02);
    MixId mx = b.mix(m);

    b.func("leaf");
    b.block(mx, 10);

    b.func("main");
    b.block(mx, 5);
    b.loop(3, 1.0, [&] {
        b.block(mx, 7);
        b.call("leaf");
    });
    return b.build("main");
}

} // namespace

TEST(ProgramBuilder, AssignsIdsAndEntry)
{
    Program p = tinyProgram();
    EXPECT_EQ(p.functions.size(), 2u);
    EXPECT_EQ(p.function(p.entry).name, "main");
    EXPECT_EQ(p.numLoops, 1);
    EXPECT_EQ(p.numCallSites, 1);
    EXPECT_EQ(p.blockLayouts.size(), 3u);  // leaf, main pre, loop body
}

TEST(ProgramBuilder, LayoutsMatchBlockCounts)
{
    Program p = tinyProgram();
    for (const auto &layout : p.blockLayouts)
        EXPECT_FALSE(layout.empty());
    // leaf's block has 10 static instructions.
    const auto &leaf = p.function(0);
    ASSERT_EQ(leaf.body.size(), 1u);
    ASSERT_EQ(leaf.body[0].kind, StmtKind::Block);
    EXPECT_EQ(p.blockLayouts[leaf.body[0].block.blockId].size(), 10u);
}

TEST(ProgramBuilder, PcsAreDisjointAndOrdered)
{
    Program p = tinyProgram();
    const auto &leaf = p.function(0);
    const auto &main_fn = p.function(1);
    EXPECT_LT(leaf.basePc, main_fn.basePc);
    EXPECT_LT(leaf.body[0].block.basePc, leaf.retPc);
    // Function base pcs are line aligned.
    EXPECT_EQ(leaf.basePc % 64, 0u);
    EXPECT_EQ(main_fn.basePc % 64, 0u);
}

TEST(ProgramBuilder, DeterministicLayoutForSameSeed)
{
    Program a = tinyProgram();
    Program b = tinyProgram();
    ASSERT_EQ(a.blockLayouts.size(), b.blockLayouts.size());
    for (size_t i = 0; i < a.blockLayouts.size(); ++i) {
        ASSERT_EQ(a.blockLayouts[i].size(), b.blockLayouts[i].size());
        for (size_t j = 0; j < a.blockLayouts[i].size(); ++j) {
            EXPECT_EQ(a.blockLayouts[i][j].cls,
                      b.blockLayouts[i][j].cls);
            EXPECT_EQ(a.blockLayouts[i][j].dep1,
                      b.blockLayouts[i][j].dep1);
        }
    }
}

TEST(ProgramBuilder, MixFractionsRoughlyHonored)
{
    ProgramBuilder b("mixcheck");
    InstructionMix m;
    m.set(InstrClass::Load, 0.3).set(InstrClass::FpAdd, 0.2);
    MixId mx = b.mix(m);
    b.func("main");
    b.block(mx, 4000);
    Program p = b.build("main");
    int loads = 0, fadds = 0;
    for (const auto &si : p.blockLayouts[0]) {
        loads += si.cls == InstrClass::Load;
        fadds += si.cls == InstrClass::FpAdd;
    }
    EXPECT_NEAR(loads / 4000.0, 0.3, 0.03);
    EXPECT_NEAR(fadds / 4000.0, 0.2, 0.03);
}

TEST(ProgramBuilder, StructuralErrorsThrowSpecError)
{
    // Each case drives a builder whose only mix is m; the message is
    // the one the authoring text reports too (SpecGolden pins it).
    struct Case
    {
        const char *name;
        std::function<void(ProgramBuilder &, MixId)> drive;
        const char *message;
    };
    const Case cases[] = {
        {"duplicate function",
         [](ProgramBuilder &b, MixId) {
             b.func("f");
             b.func("f");
         },
         "duplicate function name 'f'"},
        {"argProfiles() outside a function",
         [](ProgramBuilder &b, MixId) { b.argProfiles({}); },
         "argProfiles() outside a function"},
        {"statement outside a function",
         [](ProgramBuilder &b, MixId m) { b.block(m, 1); },
         "statement outside a function body"},
        {"unregistered mix",
         [](ProgramBuilder &b, MixId) {
             b.func("f");
             b.block(1, 1);
         },
         "unregistered mix id 1"},
        {"empty block",
         [](ProgramBuilder &b, MixId m) {
             b.func("f");
             b.block(m, 0);
         },
         "empty block"},
        {"empty loop",
         [](ProgramBuilder &b, MixId) {
             b.func("f");
             b.loop(2, 0.0, [] {});
         },
         "loop with an empty body"},
        {"endLoop() with no loop open",
         [](ProgramBuilder &b, MixId m) {
             b.func("f");
             b.block(m, 1);
             b.endLoop();
         },
         "'end' without an open loop"},
        {"loop still open at func()",
         [](ProgramBuilder &b, MixId m) {
             b.func("f");
             b.beginLoop(2, 0.0);
             b.block(m, 1);
             b.func("g");
         },
         "missing 'end' for an open loop"},
        {"loop still open at build()",
         [](ProgramBuilder &b, MixId m) {
             b.func("main");
             b.beginLoop(2, 0.0);
             b.block(m, 1);
             b.build("main");
         },
         "missing 'end' for an open loop"},
        {"undefined callee",
         [](ProgramBuilder &b, MixId) {
             b.func("main");
             b.call("ghost");
         },
         "call to undefined function 'ghost' (define callees first)"},
        {"arg beyond the callee's profiles",
         [](ProgramBuilder &b, MixId m) {
             b.func("leaf");
             b.block(m, 1);
             b.func("main");
             b.call("leaf", 1);
         },
         "arg=1 selects a profile 'leaf' does not have (it has 1)"},
        {"undefined entry",
         [](ProgramBuilder &b, MixId m) {
             b.func("main");
             b.block(m, 1);
             b.build("start");
         },
         "entry function 'start' is not defined"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        ProgramBuilder b("bad");
        MixId m = b.mix(InstructionMix{});
        try {
            c.drive(b, m);
            ADD_FAILURE() << "no SpecError thrown";
        } catch (const SpecError &e) {
            EXPECT_STREQ(e.what(), c.message);
        }
    }
}

TEST(ProgramBuilder, BeginEndLoopMatchesLoopCallback)
{
    auto canonical = [](bool pair) {
        ProgramBuilder b("loops");
        InstructionMix mix;
        mix.set(InstrClass::Load, 0.3);
        MixId m = b.mix(mix);
        b.func("leaf");
        b.argProfiles({ArgProfile{}, ArgProfile{2.0, 1.0, 0.0, 1.0}});
        b.block(m, 4);
        b.func("main");
        if (pair) {
            b.beginLoop(8, 1.0);
            b.block(m, 5);
            b.beginLoop(3, 0.0, "inner");
            b.call("leaf", 1);
            b.endLoop();
            b.endLoop();
        } else {
            b.loop(8, 1.0, [&] {
                b.block(m, 5);
                b.loopK(3, 0.0, "inner", [&] { b.call("leaf", 1); });
            });
        }
        Benchmark bm;
        bm.program = b.build("main");
        return printProgram(bm);
    };
    EXPECT_EQ(canonical(true), canonical(false));
}

TEST(InputSet, KnobLookupAndDefault)
{
    InputSet s;
    s.with("alpha", 2.5).with("beta", 0.0);
    EXPECT_DOUBLE_EQ(s.knob("alpha", 1.0), 2.5);
    EXPECT_DOUBLE_EQ(s.knob("beta", 1.0), 0.0);
    EXPECT_DOUBLE_EQ(s.knob("gamma", 1.0), 1.0);
}

TEST(Program, FindFunctionByName)
{
    Program p = tinyProgram();
    EXPECT_NE(p.findFunction("leaf"), nullptr);
    EXPECT_EQ(p.findFunction("nope"), nullptr);
}

TEST(InstructionMix, SettersChain)
{
    InstructionMix m;
    m.set(InstrClass::Load, 0.25)
        .mem(1024, 0.5, 16)
        .branches(0.1, 0.2)
        .ilp(0.4, 12);
    EXPECT_DOUBLE_EQ(m.frac[static_cast<size_t>(InstrClass::Load)],
                     0.25);
    EXPECT_EQ(m.workingSetBytes, 1024u);
    EXPECT_EQ(m.strideBytes, 16u);
    EXPECT_DOUBLE_EQ(m.branchNoise, 0.2);
    EXPECT_EQ(m.maxDepDist, 12);
}
