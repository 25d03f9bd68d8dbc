/**
 * @file
 * Client-side fault injection for the sweep server's wire protocol:
 * a small shim that takes a well-formed frame and delivers a broken
 * version of it — dropped, truncated, garbled, dribbled one byte at
 * a time (slow-loris), or cut off by a mid-frame disconnect.
 *
 * The injector is deliberately deterministic: every mutation is
 * driven by a caller-supplied seed through a xorshift PRNG, so a
 * failing fault-suite case replays exactly.  tests/test_server.cc
 * sweeps every Fault against a live in-process server and asserts
 * the server's contract: structured errors or clean disconnects,
 * never a crash, never a hang past the watchdog.
 * tests/test_spec_fuzz.cc uses the same shim to mutate spec frames.
 */

#ifndef MCD_SRV_FAULTS_HH
#define MCD_SRV_FAULTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "srv/net.hh"

namespace mcd::srv
{

/** The ways a frame can go wrong on the wire. */
enum class Fault
{
    None,               ///< deliver the frame verbatim
    DropFrame,          ///< deliver nothing at all
    TruncateFrame,      ///< deliver a strict prefix, still terminated
    GarbleFrame,        ///< flip random bytes, keep the terminator
    SlowLoris,          ///< dribble one byte per interval
    DisconnectMidFrame, ///< send half a frame, then close the socket
};

/** Every Fault, for exhaustive test sweeps. */
const std::vector<Fault> &allFaults();

/** Stable name for logs and parameterized-test labels. */
const char *faultName(Fault f);

/**
 * The byte-level mutation behind TruncateFrame/GarbleFrame, exposed
 * so the spec fuzz tests can reuse it on spec strings: returns
 * @p line cut or corrupted per @p f (other faults return it
 * unchanged).  Deterministic in @p seed.
 */
std::string mutateLine(const std::string &line, Fault f,
                       std::uint32_t seed);

/**
 * Deliver @p line (unterminated; '\n' is appended as the protocol
 * requires) through @p conn under fault @p f.  SlowLoris sleeps
 * @p dribble_ms between bytes; DisconnectMidFrame closes @p conn.
 * Returns false when the peer hung up first — for a fault client
 * that is a pass, not a failure.
 */
bool injectSend(Conn &conn, const std::string &line, Fault f,
                std::uint32_t seed, int dribble_ms = 5);

} // namespace mcd::srv

#endif // MCD_SRV_FAULTS_HH
