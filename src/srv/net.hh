/**
 * @file
 * Minimal stream-socket primitives for the sweep server and its
 * clients: a connected `Conn` with bounded, deadline-guarded line
 * I/O, and a `Listener` over a Unix-domain path or a loopback TCP
 * port.
 *
 * Everything here is deliberately defensive — the wire carries
 * untrusted bytes:
 *  - reads are line-oriented with a hard per-line byte cap, so an
 *    endless unterminated frame cannot grow a buffer without bound;
 *  - every read carries a deadline measured from the *start* of the
 *    line, so a slow-loris peer trickling one byte per poll interval
 *    cannot hold a connection open past the timeout;
 *  - writes use MSG_NOSIGNAL, so a peer that disconnected mid-reply
 *    surfaces as a `false` return, never as SIGPIPE.
 */

#ifndef MCD_SRV_NET_HH
#define MCD_SRV_NET_HH

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mcd::srv
{

/** Transport-level failure: bind/connect/accept errors.  Line-level
 *  read problems are reported as `Conn::ReadStatus`, not thrown. */
class NetError : public std::runtime_error
{
  public:
    explicit NetError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/**
 * One connected stream socket with a read-ahead buffer.  Movable,
 * not copyable; closes the descriptor on destruction.
 */
class Conn
{
  public:
    Conn() = default;
    /** Adopt an already-connected descriptor. */
    explicit Conn(int fd) : fd_(fd) {}
    ~Conn();

    Conn(Conn &&other) noexcept;
    Conn &operator=(Conn &&other) noexcept;
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    enum class ReadStatus
    {
        Line,      ///< a complete line was returned
        Eof,       ///< peer closed (any partial line is discarded)
        Timeout,   ///< no complete line within the deadline
        Overflow,  ///< line exceeded @p max_len without a newline
        Error,     ///< socket error
    };

    /**
     * Read one '\n'-terminated line (terminator stripped; a trailing
     * '\r' is also stripped for telnet-style clients).  The deadline
     * is @p timeout_ms from the call — partial progress does not
     * extend it.  On anything but `Line`, @p line is untouched.
     */
    ReadStatus readLine(std::string &line, int timeout_ms,
                        std::size_t max_len);

    /** Write all of @p text; false on any error (peer gone, ...). */
    bool writeAll(const std::string &text);

    /** writeAll(line + '\n'). */
    bool writeLine(const std::string &line);

    /** Half-close the write side (the peer sees EOF after draining). */
    void shutdownWrite();

    void close();
    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    std::string buf_;  ///< bytes read past the last returned line
};

/** Milliseconds left until @p deadline, 0 once it has passed (a
 *  poll() timeout). */
int remainingMs(std::chrono::steady_clock::time_point deadline);

/** Connect to a Unix-domain socket; throws NetError on failure. */
Conn connectUnix(const std::string &path);

/** Connect to 127.0.0.1:@p port; throws NetError on failure. */
Conn connectTcp(std::uint16_t port);

/**
 * A listening socket.  `unixSocket()` unlinks a stale socket file at
 * @p path before binding and unlinks it again on close; `tcp()`
 * binds 127.0.0.1 (port 0 picks an ephemeral port, readable back
 * via `port()`).
 */
class Listener
{
  public:
    Listener() = default;
    ~Listener();

    Listener(Listener &&other) noexcept;
    Listener &operator=(Listener &&other) noexcept;
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    static Listener unixSocket(const std::string &path);
    static Listener tcp(std::uint16_t port);

    /**
     * Wait up to @p timeout_ms for a connection; returns an invalid
     * Conn on timeout.  Throws NetError only on a dead listener.
     */
    Conn accept(int timeout_ms);

    void close();
    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }
    /** Bound TCP port (0 for a Unix listener). */
    std::uint16_t port() const { return port_; }
    /** Unix socket path (empty for a TCP listener). */
    const std::string &path() const { return path_; }

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
    std::string path_;
};

} // namespace mcd::srv

#endif // MCD_SRV_NET_HH
