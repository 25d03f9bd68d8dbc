/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one call into a layer: its name (`core.shaker`), the
 * sweep cell it worked for, the thread lane it ran on, the span that
 * caused it, and its start/end on the steady clock.  Spans are only
 * ever created by the traced run, so the untraced run pays nothing.
 * They stay in memory until the run ends and are then written out as
 * Chrome trace-event JSON (one lane per thread).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>

namespace perfbench
{

/** One finished span. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = a root span
    std::string name;
    std::string cell;          ///< sweep cell id, "" outside a cell
    unsigned lane = 0;         ///< 0 = the main thread
    std::int64_t startNs = 0;  ///< since process start
    std::int64_t endNs = 0;
};

/** Nanoseconds on the steady clock since the first call. */
std::int64_t nowNs();

/** This thread's lane: 0 for the first thread that asks (main),
 *  then 1, 2, ... in first-use order. */
unsigned thisLane();

/**
 * RAII span.  Nested spans on one thread pick up their parent
 * automatically; a span opened on a pool thread for work the main
 * thread caused names that parent explicitly.
 */
class Span
{
  public:
    /** Parent = the innermost open span on this thread. */
    explicit Span(const char *name, std::string cell = {});
    /** Explicit parent (a span id from another thread). */
    Span(const char *name, std::string cell, std::uint64_t parent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec.id; }
    /** Milliseconds since the span opened. */
    double elapsedMs() const;

  private:
    SpanRecord rec;
    std::uint64_t savedTop;
};

/** Write every span finished so far as Chrome trace-event JSON;
 *  false on an I/O error. */
bool writeChromeTrace(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
