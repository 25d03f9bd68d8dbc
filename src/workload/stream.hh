/**
 * @file
 * Deterministic execution streamer: walks a Program under an InputSet
 * and produces the dynamic instruction/marker stream.
 *
 * Two Stream instances constructed from the same (program, input)
 * pair produce bit-identical sequences — the offline oracle and the
 * profile-driven runtime rely on this reproducibility, exactly as the
 * paper relies on re-running the same binary on the same input.
 */

#ifndef MCD_WORKLOAD_STREAM_HH
#define MCD_WORKLOAD_STREAM_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "util/rng.hh"
#include "workload/program.hh"

namespace mcd::workload
{

/**
 * Pull-based generator of the dynamic execution stream.
 *
 * Streams are copyable; a copy continues from the same position with
 * the same future sequence (the sampled simulator checkpoints stream
 * state this way).  The source Program must outlive every copy.
 */
class Stream
{
  public:
    /**
     * @param program finalized program (must outlive the stream)
     * @param input   input set controlling scale/seed/knobs
     */
    Stream(const Program &program, const InputSet &input);

    /**
     * Produce the next stream item.
     *
     * @return false when the program has run to completion.
     */
    bool next(StreamItem &out);

    /** True once the program has completed. */
    bool done() const { return queue.empty() && stack.empty(); }

  private:
    struct Task
    {
        enum class Kind : std::uint8_t
        {
            List,       ///< statement list being walked
            Loop,       ///< loop iteration control
            BackBranch, ///< emit the loop back-edge branch
            Block,      ///< straight-line block emission
            FrameExit,  ///< function epilogue sentinel
        };
        Kind kind = Kind::List;
        const std::vector<Stmt> *list = nullptr;
        std::size_t idx = 0;
        const LoopStmt *loop = nullptr;
        std::uint64_t remaining = 0;
        bool taken = false;
        const BlockStmt *blk = nullptr;
        std::uint32_t i = 0;
        const Function *fn = nullptr;
    };

    struct Frame
    {
        const Function *fn = nullptr;
        ArgProfile prof;
    };

    /** Per-block dynamic memory-stream state. */
    struct BlockState
    {
        std::uint64_t streamPos = 0;
    };

    void step();
    void pushInstr(const DynInstr &di);
    void pushMarker(MarkerKind kind, std::uint16_t func,
                    std::uint16_t loop, std::uint16_t site);
    void enterFunction(const Function &fn, const ArgProfile &prof,
                       std::uint16_t site);
    std::uint64_t loopTrips(const LoopStmt &l) const;
    std::uint64_t genAddress(const BlockStmt &blk);
    void emitBlockInstr(Task &t);

    /** Pointer (not reference) so streams are copy-assignable. */
    const Program *prog;
    InputSet input;
    Rng rng;
    std::deque<StreamItem> queue;
    std::vector<Task> stack;
    std::vector<Frame> frames;
    std::vector<BlockState> blockStates;
};

} // namespace mcd::workload

#endif // MCD_WORKLOAD_STREAM_HH
