/**
 * @file
 * The sweep server's versioned, line-oriented wire format — one
 * grammar shared by the server, the client library, the fault
 * harness and the golden-transcript tests, so the format cannot
 * drift silently.
 *
 * Every frame is one '\n'-terminated line of space-separated tokens:
 *
 *     MCD/2 <VERB> [key=value ...] [msg=free text to end of line]
 *
 * The leading `MCD/<version>` tag makes every frame self-describing;
 * a server that does not speak the client's version can say so in a
 * parseable way.  Values never contain spaces — workload and policy
 * spec strings (the `util/text.hh` grammar) satisfy this by
 * construction, and their *canonical* form is the request key, so
 * two clients spelling one cell differently still deduplicate into
 * one computation.  The one exception is the trailing `msg=` token
 * of an `ERR` reply, which swallows the rest of the line.
 *
 * Requests:  HELLO, PING, STATS, SWEEP, PROG, QUIT
 * Responses: OK, ROW, DONE, ERR, BYE
 *
 * See docs/SERVER.md for the full grammar, knob defaults and a
 * worked session.
 */

#ifndef MCD_SRV_PROTO_HH
#define MCD_SRV_PROTO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "control/policy.hh"

namespace mcd::srv
{

/**
 * Protocol version spoken by this tree.
 *
 * History (docs/SERVER.md keeps the same table):
 *  - MCD/1: HELLO/PING/STATS/SWEEP/PROG/QUIT over single-core cells.
 *  - MCD/2: SWEEP gained `tiles=` and `coord=` (chip sweeps); chip
 *    ROW frames carry a leading `tile=` field (`0..N-1` or `u` for
 *    the shared uncore).
 */
constexpr int PROTO_VERSION = 2;

/** The line tag every frame starts with ("MCD/2"). */
extern const char *const PROTO_TAG;

/**
 * Structured error codes an `ERR` reply can carry.  The code is a
 * stable machine-readable kebab-case word; the trailing `msg=` text
 * is for humans and may change freely.
 */
namespace err
{
inline constexpr const char *BAD_REQUEST = "bad-request";
inline constexpr const char *BAD_SPEC = "bad-spec";
inline constexpr const char *TOO_LARGE = "too-large";
inline constexpr const char *OVERLOAD = "overload";
inline constexpr const char *TIMEOUT = "timeout";
inline constexpr const char *CONFIG_MISMATCH = "config-mismatch";
inline constexpr const char *SHUTTING_DOWN = "shutting-down";
inline constexpr const char *INTERNAL = "internal";
} // namespace err

/** Every error code, for docs/tests that must enumerate them. */
const std::vector<std::string> &errorCodes();

/** Strict parse of a config fingerprint: exactly 16 lowercase hex
 *  digits. */
bool parseHex16(const std::string &text, std::uint64_t &out);

/** @p v as the 16 lowercase hex digits parseHex16() reads. */
std::string hex16(std::uint64_t v);

/** A parsed request line. */
struct Request
{
    enum class Verb
    {
        Hello,
        Ping,
        Stats,
        Sweep,
        Prog,
        Quit,
    };

    Verb verb = Verb::Ping;
    /** Client-chosen tag echoed on every reply line (may be empty;
     *  charset [A-Za-z0-9_.-]). */
    std::string id;
    /** SWEEP: workload spec strings, outer sweep dimension. */
    std::vector<std::string> workloads;
    /** SWEEP: policy spec strings, inner sweep dimension. */
    std::vector<std::string> policies;
    /** SWEEP: production window; 0 = the server's default. */
    std::uint64_t window = 0;
    /** SWEEP: per-request timeout; 0 = the server's cap. */
    int timeoutMs = 0;
    /** SWEEP: expected exp::configFingerprint (16 hex digits), so a
     *  client can refuse results from a differently-configured
     *  server.  Checked only when present. */
    bool hasFingerprint = false;
    std::uint64_t fingerprint = 0;
    /** SWEEP: `tiles=` present makes this a chip sweep — every
     *  workload runs as a co-schedule on a `chip::Chip` and every
     *  cell streams tiles+1 rows (`tile=0..N-1` plus `tile=u`).
     *  tiles=0 means "as named by the multi: spec". */
    bool hasTiles = false;
    std::uint64_t tiles = 0;
    /** SWEEP (chip only): `chip-coord:...` coordinator spec; empty =
     *  the uncore stays pinned at its maximum frequency. */
    std::string coord;
    /** PROG: number of verbatim program-text lines that follow. */
    std::size_t progLines = 0;
};

/**
 * Parse one request line.  Strict: unknown verbs, unknown keys,
 * malformed values, a bad version tag and duplicate scalar keys all
 * fail with a self-contained message in @p err_text (the message
 * names the offending token).
 */
bool parseRequest(const std::string &line, Request &req,
                  std::string &err_text);

/** Render @p req as a wire line (the client side of the grammar). */
std::string formatRequest(const Request &req);

/** A parsed response line. */
struct Response
{
    enum class Kind
    {
        Ok,
        Row,
        Done,
        Err,
        Bye,
    };

    Kind kind = Kind::Ok;
    std::string id;
    /** key=value payload in wire order (excluding id and msg). */
    std::vector<std::pair<std::string, std::string>> fields;
    /** ERR only: free-text message (the rest of the line). */
    std::string msg;

    /** Value of @p key, or empty string if absent. */
    const std::string &field(const std::string &key) const;
};

/** Parse one response line (same strictness as parseRequest). */
bool parseResponse(const std::string &line, Response &resp,
                   std::string &err_text);

/** Render a response line.  @p msg is appended as a trailing
 *  `msg=` token when non-empty. */
std::string
formatResponse(Response::Kind kind, const std::string &id,
               const std::vector<std::pair<std::string, std::string>>
                   &fields = {},
               const std::string &msg = {});

/** Shorthand for an ERR line: `MCD/2 ERR [id=..] code=.. [retry_ms=..]
 *  msg=..`. */
std::string errLine(const std::string &id, const char *code,
                    const std::string &msg, int retry_ms = 0);

/**
 * The outcome payload of a ROW frame, as ordered key=value tokens:
 * the eleven raw Outcome fields in cache-line order followed by the
 * paper's three metrics.  Numbers are printed in the C locale at
 * precision 17, so parse -> format round-trips are byte-exact — the
 * local and remote client paths print identical bytes.
 */
std::string formatOutcome(const control::Outcome &o);

/** Inverse of formatOutcome over parsed ROW fields; false (with a
 *  message) on a missing or malformed field. */
bool parseOutcome(
    const std::vector<std::pair<std::string, std::string>> &fields,
    control::Outcome &o, std::string &err_text);

/**
 * The canonical one-line rendering of one sweep result,
 * `workload=.. policy=.. <outcome fields>` — what `mcd_client`
 * prints per cell in both `--local` and remote modes, and what the
 * byte-identity gates diff.
 */
std::string resultLine(const std::string &workload,
                       const std::string &policy,
                       const control::Outcome &o);

/** One sweep result row: what a ROW frame carries and what
 *  `mcd_client` prints, in both modes. */
struct SweepRow
{
    std::string workload;  ///< canonical workload spec
    std::string policy;    ///< canonical policy spec
    /** Chip sweeps only: `"0"`..`"N-1"` for a tile row, `"u"` for
     *  the shared-uncore row; empty on single-core sweeps. */
    std::string tile;
    bool memoHit = false;  ///< served from the memo?
    control::Outcome outcome;
};

/**
 * The one rendering of a sweep row: `tile=K ` (chip rows only)
 * followed by resultLine().  `mcd_client` prints it in both modes,
 * and a ROW frame carries it between its `id=` and `memo=` fields.
 */
std::string rowLine(const SweepRow &row);

/**
 * Row label for chip sweep row @p k of an N-tile chip: `"0"`..`"N-1"`
 * for the tiles, `"u"` for the shared-uncore row (k == N).  The same
 * spelling appears in the `tile=` wire field, the `tile=K ` prefix
 * `mcd_client` prints, and the chip cache keys.
 */
std::string tileLabel(std::size_t k, std::size_t tiles);

} // namespace mcd::srv

#endif // MCD_SRV_PROTO_HH
