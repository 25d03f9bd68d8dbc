/**
 * @file
 * Structured workload IR: programs made of functions, loops, call
 * sites and instruction blocks.
 *
 * The IR is the stand-in for application binaries
 * (docs/ARCHITECTURE.md, "IR substitution"): it
 * exposes exactly the structural boundaries that the paper's ATOM
 * phase instruments — subroutine prologues/epilogues, loop
 * headers/footers (loops = SCCs of the CFG) and call sites — while the
 * blocks inside carry statistical behaviour (instruction mix, memory
 * locality, branch predictability, ILP) that drives the cycle-level
 * simulator.
 */

#ifndef MCD_WORKLOAD_PROGRAM_HH
#define MCD_WORKLOAD_PROGRAM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload/instr.hh"

namespace mcd::workload
{

/** Identifier of a registered instruction mix. */
using MixId = std::uint16_t;

/**
 * Statistical description of the instructions inside a block.
 *
 * Class fractions need not sum to one; the remainder is IntAlu.
 */
struct InstructionMix
{
    /** Fraction of each instruction class (see InstrClass order). */
    std::array<double, numInstrClasses> frac{};

    /** Data working-set size in bytes. */
    std::uint64_t workingSetBytes = 64 * 1024;
    /** Fraction of memory accesses that stream sequentially. */
    double streamFrac = 0.7;
    /** Stride of streaming accesses in bytes. */
    std::uint32_t strideBytes = 8;

    /** Probability that a conditional branch deviates from its bias. */
    double branchNoise = 0.03;

    /** Probability a source depends on a very recent producer. */
    double shortDepProb = 0.55;
    /** Maximum producer distance for long dependences. */
    int maxDepDist = 24;

    /** Convenience setters for fluent construction. */
    InstructionMix &set(InstrClass c, double f);
    InstructionMix &mem(std::uint64_t ws, double stream_frac,
                        std::uint32_t stride = 8);
    InstructionMix &branches(double frac_branch, double noise);
    InstructionMix &ilp(double short_prob, int max_dist);
};

/**
 * Per-call-argument behaviour modulation.  Models "the same code
 * called with different arguments behaves differently" (e.g. epic
 * encode's internal_filter, Section 4.2) without duplicating code:
 * instruction classes stay identical, data behaviour changes.
 */
struct ArgProfile
{
    double wsMul = 1.0;      ///< working-set multiplier
    double tripMul = 1.0;    ///< loop trip-count multiplier
    double noiseAdd = 0.0;   ///< extra branch noise
    double streamMul = 1.0;  ///< multiplier on streaming fraction
};

/** One static instruction inside a block layout. */
struct StaticInstr
{
    InstrClass cls = InstrClass::IntAlu;
    std::uint8_t dep1 = 0;
    std::uint8_t dep2 = 0;
    float takenBias = 0.5f;  ///< bias for conditional branches
};

/** Statement kinds within a function body. */
enum class StmtKind : std::uint8_t { Block, Loop, Call };

struct Stmt;

/** A straight-line block of @p count instructions drawn from a mix. */
struct BlockStmt
{
    MixId mix = 0;
    std::uint32_t count = 0;
    std::uint32_t blockId = 0;  ///< assigned at finalize
    std::uint64_t basePc = 0;   ///< assigned at finalize
};

/**
 * A loop.  Trip count = max(1, round(baseTrips * input.scale^scaleExp
 * * knob)), where knob is the input-set knob @ref tripKnob (1.0 when
 * unset).
 */
struct LoopStmt
{
    std::uint16_t loopId = 0;   ///< assigned at finalize
    double baseTrips = 1.0;
    double scaleExp = 1.0;      ///< 0 = fixed trips, 1 = scale w/ input
    std::string tripKnob;       ///< optional input knob multiplier
    std::uint64_t branchPc = 0; ///< back-edge branch pc (finalize)
    std::vector<Stmt> body;
};

/**
 * A call site.  The call executes per dynamic encounter with
 * probability @ref guardProb, optionally overridden by input knob
 * @ref guardKnob — this is how input-dependent code paths (mpeg2
 * decode's reference-only paths, Section 4.4) are expressed.
 */
struct CallStmt
{
    std::uint16_t siteId = 0;   ///< assigned at finalize
    std::uint16_t callee = 0;
    std::uint8_t arg = 0;       ///< selects callee ArgProfile
    double guardProb = 1.0;
    std::string guardKnob;
    std::uint64_t callPc = 0;   ///< call branch pc (finalize)
};

/** Tagged statement union. */
struct Stmt
{
    StmtKind kind = StmtKind::Block;
    BlockStmt block;
    CallStmt call;
    LoopStmt loop;
};

/** A function (subroutine). */
struct Function
{
    std::uint16_t id = 0;
    std::string name;
    std::vector<Stmt> body;
    std::vector<ArgProfile> argProfiles;  ///< index 0 = default
    std::uint64_t basePc = 0;   ///< assigned at finalize
    std::uint64_t retPc = 0;    ///< return branch pc (finalize)
};

/**
 * A complete workload program.  Instances are immutable after
 * ProgramBuilder::build(); the streamer executes them.
 */
struct Program
{
    std::string name;
    std::vector<Function> functions;
    std::vector<InstructionMix> mixes;
    std::vector<std::vector<StaticInstr>> blockLayouts;
    std::uint16_t entry = 0;
    std::uint16_t numLoops = 0;
    std::uint16_t numCallSites = 0;
    /** Seed the static block layouts were materialized from; kept so
     *  the authoring format can round-trip a program exactly. */
    std::uint64_t layoutSeed = 0;

    const Function &function(std::uint16_t id) const;
    const Function *findFunction(const std::string &name) const;
};

/**
 * An input data set: global scale plus named behaviour knobs.
 * Training and reference sets of one benchmark share the program but
 * differ in scale/seed/knobs (Table 2 of the paper).
 */
struct InputSet
{
    std::string name = "train";
    std::uint64_t seed = 1;
    double scale = 1.0;
    std::vector<std::pair<std::string, double>> knobs;

    /** Look up a knob, returning @p dflt when absent. */
    double knob(const std::string &key, double dflt) const;

    InputSet &with(const std::string &key, double value);
};

/**
 * Fluent builder for Program: the one code that assembles a program
 * and checks its structure, for the suite, the `gen:` generator and
 * the authoring-text parser alike.
 *
 * Function bodies are built with an implicit cursor: statements go
 * to the innermost open loop, else to the current function.  Entity
 * ids (functions, loops, call sites, blocks) are assigned
 * automatically; pcs are laid out at build() so that instruction
 * fetch sees a stable, realistic code footprint.  Every structural
 * error (an undefined callee, an unbalanced loop, ...) throws
 * SpecError.
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string program_name);

    /** Register an instruction mix, returning its id. */
    MixId mix(const InstructionMix &m);

    /**
     * Close the current function (endFunc()) and start a new one;
     * subsequent block/loop/call statements are appended to it.
     * Returns the function id.
     */
    std::uint16_t func(const std::string &name);

    /** Close the current function: a statement needs a new func()
     *  after it.  Throws SpecError if a loop is still open. */
    void endFunc();

    /** Set per-arg behaviour profiles of the current function. */
    void argProfiles(std::vector<ArgProfile> profiles);

    /** Append a straight-line block of @p count instructions. */
    void block(MixId m, std::uint32_t count);

    /**
     * Open a loop: the statements up to the matching endLoop() form
     * its body.  @p trip_knob, when set, names the input knob that
     * additionally scales the trip count.
     */
    void beginLoop(double base_trips, double scale_exp,
                   const std::string &trip_knob = "");

    /** Close the innermost open loop.  Throws SpecError if no loop
     *  is open or its body is empty. */
    void endLoop();

    /**
     * Append a loop. @p fill is invoked immediately to populate the
     * loop body through this same builder.
     */
    void loop(double base_trips, double scale_exp,
              const std::function<void()> &fill);

    /** Loop whose trip count is additionally scaled by a knob. */
    void loopK(double base_trips, double scale_exp,
               const std::string &trip_knob,
               const std::function<void()> &fill);

    /** Append a call to @p callee_name (must already exist), taking
     *  its argument profile @p arg. */
    void call(const std::string &callee_name, std::uint8_t arg = 0,
              double guard_prob = 1.0, const std::string &guard_knob = "");

    /**
     * Finalize: close the current function, resolve the entry
     * function, assign ids and pcs, and materialize static block
     * layouts (deterministic in the layout seed so the same program
     * always has identical code).
     */
    Program build(const std::string &entry_name,
                  std::uint64_t layout_seed = 12345);

  private:
    std::vector<Stmt> &statements();

    Program prog;
    /** Statement-list stack: the current function's body at the
     *  bottom, one entry per open loop above it; empty between
     *  functions. */
    std::vector<std::vector<Stmt> *> listStack;
};

} // namespace mcd::workload

#endif // MCD_WORKLOAD_PROGRAM_HH
