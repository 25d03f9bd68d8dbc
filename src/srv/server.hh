/**
 * @file
 * `srv::SweepServer` — the resident sweep service: a long-running
 * daemon that accepts `{workload spec, policy spec, window,
 * config fingerprint}` requests over a Unix or loopback-TCP socket
 * (the versioned line format of srv/proto.hh), executes them on the
 * shared thread pool through `exp::Runner`'s sharded shared-future
 * memo — concurrent identical cells compute exactly once — and
 * streams outcome rows back.
 *
 * Robustness is part of the contract, not an afterthought:
 *  - malformed frames get a structured `ERR code=bad-request` reply
 *    naming the offending token; the connection stays usable;
 *  - bad specs surface the catchable `workload::SpecError` /
 *    policy-canonicalization message over the wire as
 *    `ERR code=bad-spec`;
 *  - admission control is a bounded cell queue: a request that would
 *    overflow it is rejected up front with `ERR code=overload
 *    retry_ms=N` instead of degrading everyone already admitted;
 *  - per-request deadlines bound how long a client waits
 *    (`ERR code=timeout`; the cells keep computing and warm the memo
 *    for the retry);
 *  - oversized frames and slow-loris clients are bounded by the
 *    per-line byte cap and the idle deadline;
 *  - `stop()` is a clean drain: stop accepting, fail new sweeps with
 *    `ERR code=shutting-down`, let admitted work finish and stream
 *    out, then flush the result cache.
 *
 * The server is equally happy in-process (the test fixture and
 * `bench_server` start one inside the test binary) or as the
 * standalone `mcd_server` daemon.
 */

#ifndef MCD_SRV_SERVER_HH
#define MCD_SRV_SERVER_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "exp/experiment.hh"
#include "srv/net.hh"
#include "srv/proto.hh"
#include "util/pool.hh"

namespace mcd::srv
{

/** Every server knob, with its default.  docs/SERVER.md documents
 *  each one; tests/test_docs.cc pins that table to this struct. */
struct ServerConfig
{
    /** Unix-domain socket path; empty = no Unix listener. */
    std::string unixPath;
    /** Loopback TCP port; -1 = no TCP listener, 0 = ephemeral. */
    int tcpPort = -1;
    /** Harness configuration: default window, cache file, pool
     *  size (`exp.jobs`), Sim/Power knobs (fingerprinted). */
    exp::ExpConfig exp;
    /** Admission bound: max sweep cells queued or running across
     *  all clients.  A request that would exceed it is rejected
     *  with `overload` + retry_ms. */
    std::size_t queueLimit = 64;
    /** Max cells (workloads x policies) in one SWEEP request. */
    std::size_t maxCellsPerRequest = 64;
    /** Max simultaneously-served connections; beyond it new
     *  connections get `overload` and are closed. */
    std::size_t maxConnections = 64;
    /** Cap (and default) for a request's deadline. */
    int requestTimeoutMs = 120'000;
    /** Per-line read deadline: a client that cannot finish a frame
     *  within it (slow-loris) is disconnected. */
    int idleTimeoutMs = 30'000;
    /** Hard per-frame byte cap. */
    std::size_t maxLineBytes = 64 * 1024;
    /** Max lines in one PROG program upload. */
    std::size_t maxProgLines = 4096;
    /** retry_ms hint sent with `overload` rejections. */
    int retryAfterMs = 250;
    /** Max distinct per-request windows (each owns a Runner whose
     *  memo is shared by every request at that window). */
    std::size_t maxWindows = 8;
};

/** A monotonic snapshot of the server's counters (`STATS` payload). */
struct ServerStats
{
    std::uint64_t connections = 0;      ///< accepted, lifetime
    std::uint64_t activeConnections = 0;
    std::uint64_t admitted = 0;         ///< cells admitted, lifetime
    std::uint64_t rejectedOverload = 0; ///< requests+conns bounced
    std::uint64_t badRequests = 0;      ///< bad-request/bad-spec/...
    std::uint64_t timeouts = 0;         ///< requests past deadline
    std::uint64_t rowsStreamed = 0;
    std::uint64_t inflightCells = 0;    ///< queued or running now
    std::uint64_t memoHits = 0;         ///< summed over runners
    std::uint64_t memoMisses = 0;       ///< == cells actually computed
    std::uint64_t cacheLoaded = 0;
    std::uint64_t cacheRejected = 0;
};

class SweepServer
{
  public:
    explicit SweepServer(ServerConfig cfg);
    /** stop()s if still running. */
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /** Bind the configured listeners and start serving (background
     *  accept thread).  Throws NetError if no listener could bind. */
    void start();

    /**
     * Graceful drain, safe to call from any thread (once): stop
     * accepting, let every admitted request finish streaming, join
     * all service threads, then destroy the runners (flushing the
     * CSV cache writer).  Idempotent.
     */
    void stop();

    bool running() const { return started_ && !stopping_; }

    /** Actual TCP port (after an ephemeral bind), 0 if none. */
    std::uint16_t tcpPort() const;
    /** Unix socket path, empty if none. */
    std::string unixSocketPath() const;

    /** The config fingerprint requests may pin (`fingerprint=`). */
    std::uint64_t fingerprint() const { return fingerprint_; }

    ServerStats stats() const;

    const ServerConfig &config() const { return cfg_; }

  private:
    struct ConnSlot
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void serveConn(Conn conn);
    /** Returns false when the connection should be closed. */
    bool handleLine(Conn &conn, const std::string &line);
    /** Single-core and chip (`tiles=`) sweeps alike, through the
     *  shared path of srv/sweep.hh. */
    bool handleSweep(Conn &conn, const Request &req);
    bool handleProg(Conn &conn, const Request &req);
    exp::Runner *runnerFor(std::uint64_t window, std::string &err);
    void reapConnThreads(bool join_all);

    ServerConfig cfg_;
    std::uint64_t fingerprint_ = 0;
    std::vector<Listener> listeners_;
    std::unique_ptr<util::ThreadPool> pool_;
    std::thread acceptThread_;
    std::list<std::unique_ptr<ConnSlot>> conns_;
    std::mutex connsM_;

    /** window -> Runner; every request at one window shares one
     *  memo, so identical concurrent cells compute once. */
    std::map<std::uint64_t, std::unique_ptr<exp::Runner>> runners_;
    mutable std::mutex runnersM_;
    /** Counters of runners already destroyed by stop(), so the
     *  post-drain stats line still reports them (under runnersM_). */
    std::uint64_t retiredHits_ = 0, retiredMisses_ = 0,
                  retiredLoaded_ = 0, retiredRejected_ = 0;
    std::mutex stopM_;  ///< serializes stop() calls (idempotence)

    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> inflightCells_{0};
    std::atomic<std::uint64_t> nConnections_{0};
    std::atomic<std::uint64_t> nActiveConns_{0};
    std::atomic<std::uint64_t> nAdmitted_{0};
    std::atomic<std::uint64_t> nRejectedOverload_{0};
    std::atomic<std::uint64_t> nBadRequests_{0};
    std::atomic<std::uint64_t> nTimeouts_{0};
    std::atomic<std::uint64_t> nRowsStreamed_{0};
};

} // namespace mcd::srv

#endif // MCD_SRV_SERVER_HH
