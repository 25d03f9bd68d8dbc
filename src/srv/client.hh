/**
 * @file
 * `srv::Client` — the typed client side of the sweep-server wire
 * protocol (srv/proto.hh): connect over Unix or loopback TCP, send
 * one request line, parse the reply frames back into structured
 * results.
 *
 * Error surfaces are split by layer, mirroring the server:
 *  - transport problems (connect refused, peer vanished, reply
 *    deadline) throw `NetError`;
 *  - structured `ERR` replies throw `ClientError`, which carries the
 *    machine-readable code (`bad-spec`, `overload`, ...) and the
 *    server's retry hint, so callers can branch on the code — the
 *    load driver backs off on `overload`, the CLI prints `bad-spec`
 *    messages verbatim.
 *
 * `mcd_client`, the test fixture and `bench_server` all drive the
 * server exclusively through this class.
 */

#ifndef MCD_SRV_CLIENT_HH
#define MCD_SRV_CLIENT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "srv/net.hh"
#include "srv/proto.hh"

namespace mcd::srv
{

/** A structured `ERR` reply from the server. */
class ClientError : public std::runtime_error
{
  public:
    ClientError(std::string code, const std::string &msg,
                int retry_ms)
        : std::runtime_error(code + ": " + msg),
          code_(std::move(code)), retryMs_(retry_ms)
    {
    }

    /** Machine-readable code (`srv::err` constants). */
    const std::string &code() const { return code_; }
    /** Server back-off hint in ms (0 unless code is `overload`). */
    int retryMs() const { return retryMs_; }

  private:
    std::string code_;
    int retryMs_;
};

/** A complete sweep reply (every ROW up to DONE). */
struct SweepReply
{
    std::vector<SweepRow> rows;
    std::uint64_t hits = 0;    ///< DONE hits= (memo hits)
    std::uint64_t misses = 0;  ///< DONE misses= (cells computed)
};

class Client
{
  public:
    /** Connect to a Unix-domain server socket. */
    static Client connectUnix(const std::string &path);
    /** Connect to a loopback-TCP server port. */
    static Client connectTcp(std::uint16_t port);

    Client(Client &&) = default;
    Client &operator=(Client &&) = default;

    /**
     * HELLO handshake.  Verifies the protocol version and remembers
     * the server's config fingerprint for `sweep(pin=true)`.  A
     * fingerprint that is not 16 hex digits is a NetError, as is any
     * malformed numeric reply field.
     */
    void hello();

    /** Server config fingerprint learned from hello() (0 before). */
    std::uint64_t serverFingerprint() const { return fingerprint_; }

    void ping();

    /** STATS payload as ordered key=value pairs. */
    std::vector<std::pair<std::string, std::string>> stats();

    /**
     * Run a {workloads x policies} sweep.  @p window and
     * @p timeout_ms of 0 take the server defaults; @p pin sends the
     * fingerprint learned by hello() so a differently-configured
     * server refuses instead of answering with foreign numbers.
     * @p tiles >= 0 makes it a chip sweep (`tiles=` on the wire;
     * 0 = "as named by the multi: spec"), streaming tiles+1 rows per
     * cell; @p coord optionally names a `chip-coord:` spec for the
     * shared uncore.
     */
    SweepReply sweep(const std::vector<std::string> &workloads,
                     const std::vector<std::string> &policies,
                     std::uint64_t window = 0, int timeout_ms = 0,
                     bool pin = false, long long tiles = -1,
                     const std::string &coord = {});

    /** Upload authored program text (PROG); returns the
     *  content-addressed `prog:...` handle. */
    std::string uploadProgram(const std::string &program_text);

    /** Polite QUIT (waits for BYE). */
    void quit();

    /** Escape hatch for protocol-level tests: send @p line verbatim
     *  and return the next reply line (throws NetError on EOF or
     *  deadline). */
    std::string raw(const std::string &line);

  private:
    explicit Client(Conn conn) : conn_(std::move(conn)) {}

    /** Read and parse one response frame; throws ClientError on ERR
     *  and NetError on transport/parse failure. */
    Response readResponse();
    /** Send one request and expect a single OK-class reply. */
    Response roundTrip(const Request &req, Response::Kind expect);

    Conn conn_;
    std::uint64_t fingerprint_ = 0;
    /** Deadline for each reply line (covers server compute time). */
    int replyTimeoutMs_ = 150'000;
    std::uint64_t seq_ = 0;  ///< request tag counter (q0, q1, ...)
};

} // namespace mcd::srv

#endif // MCD_SRV_CLIENT_HH
