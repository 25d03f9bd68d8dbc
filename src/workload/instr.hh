/**
 * @file
 * Dynamic instruction representation produced by the workload
 * streamer and consumed by the cycle-level simulator.
 *
 * This plays the role of the (Alpha) instruction stream that the
 * paper's SimpleScalar-based simulator executes.  See
 * docs/ARCHITECTURE.md ("IR substitution") for the substitution
 * rationale.
 */

#ifndef MCD_WORKLOAD_INSTR_HH
#define MCD_WORKLOAD_INSTR_HH

#include <cstdint>

#include "util/types.hh"

namespace mcd::workload
{

/** Instruction classes modeled by the pipeline. */
enum class InstrClass : std::uint8_t
{
    IntAlu = 0,
    IntMul,
    IntDiv,
    FpAdd,
    FpMul,
    FpDiv,
    FpSqrt,
    Load,
    Store,
    Branch,
    NumClasses,
};

constexpr int numInstrClasses = static_cast<int>(InstrClass::NumClasses);

/** The clock domain whose issue queue / FUs execute this class. */
Domain execDomain(InstrClass c);

/** True for classes that produce a register value. */
bool producesValue(InstrClass c);

/**
 * One dynamic instruction.
 *
 * Register dependences are encoded positionally: depN gives the
 * distance, in value-producing instructions, back to the producer of
 * source operand N (1 = the most recent producer before this
 * instruction, 0 = no dependence).  The simulator resolves distances
 * against its in-flight window, which keeps the stream compact while
 * still exercising real wakeup/issue logic.
 */
struct DynInstr
{
    std::uint64_t pc = 0;       ///< static program counter (bytes)
    InstrClass cls = InstrClass::IntAlu;
    std::uint8_t dep1 = 0;      ///< producer distance of source 1
    std::uint8_t dep2 = 0;      ///< producer distance of source 2
    std::uint64_t addr = 0;     ///< effective address (Load/Store)
    std::uint64_t target = 0;   ///< branch target pc (Branch)
    bool taken = false;         ///< actual branch outcome (Branch)
};

/**
 * Marker kinds emitted by the streamer at program-structure
 * boundaries.  Markers are the IR-level stand-in for the subroutine
 * prologues/epilogues, loop headers/footers and call sites that the
 * paper instruments with ATOM (Section 3.4).
 */
enum class MarkerKind : std::uint8_t
{
    FuncEnter,
    FuncExit,
    LoopEnter,
    LoopExit,
    CallSite,
};

/** A structural marker. Ids are the static IR entity ids. */
struct Marker
{
    MarkerKind kind = MarkerKind::FuncEnter;
    std::uint16_t func = 0;  ///< function id (FuncEnter/FuncExit)
    std::uint16_t loop = 0;  ///< loop id (LoopEnter/LoopExit)
    std::uint16_t site = 0;  ///< call-site id (CallSite, FuncEnter)
};

/** One element of the execution stream: instruction or marker. */
struct StreamItem
{
    enum class Kind : std::uint8_t { Instr, Marker };
    Kind kind = Kind::Instr;
    DynInstr instr;
    Marker marker;
};

} // namespace mcd::workload

#endif // MCD_WORKLOAD_INSTR_HH
