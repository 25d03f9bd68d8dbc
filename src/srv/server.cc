#include "srv/server.hh"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>
#include <vector>

#include <poll.h>

#include "srv/sweep.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"

namespace mcd::srv
{

namespace
{

using Clock = std::chrono::steady_clock;

} // namespace

SweepServer::SweepServer(ServerConfig cfg) : cfg_(std::move(cfg))
{
    fingerprint_ = exp::configFingerprint(cfg_.exp);
}

SweepServer::~SweepServer() { stop(); }

void
SweepServer::start()
{
    if (started_.exchange(true))
        throw NetError("server already started");
    if (cfg_.unixPath.empty() && cfg_.tcpPort < 0) {
        started_ = false;
        throw NetError(
            "no listener configured (need a unix path or tcp port)");
    }
    try {
        if (!cfg_.unixPath.empty())
            listeners_.push_back(Listener::unixSocket(cfg_.unixPath));
        if (cfg_.tcpPort >= 0)
            listeners_.push_back(Listener::tcp(
                static_cast<std::uint16_t>(cfg_.tcpPort)));
    } catch (...) {
        listeners_.clear();
        started_ = false;
        throw;
    }
    pool_ = std::make_unique<util::ThreadPool>(cfg_.exp.jobs);
    acceptThread_ = std::thread(&SweepServer::acceptLoop, this);
}

void
SweepServer::stop()
{
    std::lock_guard<std::mutex> lock(stopM_);
    stopping_ = true;
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (auto &l : listeners_)
        l.close();
    listeners_.clear();
    reapConnThreads(/*join_all=*/true);
    if (pool_)
        pool_->wait();
    {
        // Destroying the runners flushes their CSV cache writers;
        // keep their counters for the post-drain stats line.
        std::lock_guard<std::mutex> rlock(runnersM_);
        for (const auto &kv : runners_) {
            retiredHits_ += kv.second->memoHits();
            retiredMisses_ += kv.second->memoMisses();
            retiredLoaded_ += kv.second->loadedFromCache();
            retiredRejected_ += kv.second->rejectedCacheLines();
        }
        runners_.clear();
    }
}

std::uint16_t
SweepServer::tcpPort() const
{
    for (const auto &l : listeners_)
        if (l.port() != 0)
            return l.port();
    return 0;
}

std::string
SweepServer::unixSocketPath() const
{
    for (const auto &l : listeners_)
        if (!l.path().empty())
            return l.path();
    return {};
}

ServerStats
SweepServer::stats() const
{
    ServerStats s;
    s.connections = nConnections_.load();
    s.activeConnections = nActiveConns_.load();
    s.admitted = nAdmitted_.load();
    s.rejectedOverload = nRejectedOverload_.load();
    s.badRequests = nBadRequests_.load();
    s.timeouts = nTimeouts_.load();
    s.rowsStreamed = nRowsStreamed_.load();
    s.inflightCells = inflightCells_.load();
    std::lock_guard<std::mutex> lock(runnersM_);
    s.memoHits = retiredHits_;
    s.memoMisses = retiredMisses_;
    s.cacheLoaded = retiredLoaded_;
    s.cacheRejected = retiredRejected_;
    for (const auto &kv : runners_) {
        s.memoHits += kv.second->memoHits();
        s.memoMisses += kv.second->memoMisses();
        s.cacheLoaded += kv.second->loadedFromCache();
        s.cacheRejected += kv.second->rejectedCacheLines();
    }
    return s;
}

exp::Runner *
SweepServer::runnerFor(std::uint64_t window, std::string &err)
{
    std::lock_guard<std::mutex> lock(runnersM_);
    auto it = runners_.find(window);
    if (it != runners_.end())
        return it->second.get();
    if (runners_.size() >= cfg_.maxWindows) {
        err = "window pool exhausted (max_windows=" +
              std::to_string(cfg_.maxWindows) +
              " distinct windows already in use)";
        return nullptr;
    }
    exp::ExpConfig wcfg = cfg_.exp;
    wcfg.productionWindow = window;
    wcfg.analysisWindow = window;
    auto runner = std::make_unique<exp::Runner>(wcfg);
    exp::Runner *raw = runner.get();
    runners_.emplace(window, std::move(runner));
    return raw;
}

void
SweepServer::acceptLoop()
{
    while (!stopping_) {
        std::vector<struct pollfd> pfds;
        pfds.reserve(listeners_.size());
        for (const auto &l : listeners_)
            pfds.push_back({l.fd(), POLLIN, 0});
        int pr = ::poll(pfds.data(),
                        static_cast<nfds_t>(pfds.size()), 100);
        reapConnThreads(/*join_all=*/false);
        if (pr <= 0)
            continue;
        for (std::size_t i = 0; i < pfds.size(); ++i) {
            if (!(pfds[i].revents & POLLIN))
                continue;
            Conn conn = listeners_[i].accept(0);
            if (!conn.valid())
                continue;
            nConnections_.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(connsM_);
            if (conns_.size() >= cfg_.maxConnections) {
                nRejectedOverload_.fetch_add(
                    1, std::memory_order_relaxed);
                conn.writeLine(errLine(
                    "", err::OVERLOAD,
                    "connection limit reached (max_connections=" +
                        std::to_string(cfg_.maxConnections) + ")",
                    cfg_.retryAfterMs));
                continue; // conn closes on scope exit
            }
            auto slot = std::make_unique<ConnSlot>();
            ConnSlot *sp = slot.get();
            sp->thread = std::thread(
                [this, sp, c = std::move(conn)]() mutable {
                    serveConn(std::move(c));
                    sp->done.store(true);
                });
            conns_.push_back(std::move(slot));
        }
    }
}

void
SweepServer::reapConnThreads(bool join_all)
{
    std::lock_guard<std::mutex> lock(connsM_);
    for (auto it = conns_.begin(); it != conns_.end();) {
        if (join_all || (*it)->done.load()) {
            if ((*it)->thread.joinable())
                (*it)->thread.join();
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
}

void
SweepServer::serveConn(Conn conn)
{
    nActiveConns_.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
        std::string line;
        // The deadline covers the whole frame: a slow-loris peer
        // trickling bytes cannot extend it.  Read in short slices so
        // stop() is noticed promptly between requests.
        Clock::time_point deadline =
            Clock::now() +
            std::chrono::milliseconds(cfg_.idleTimeoutMs);
        bool closing = false;
        for (;;) {
            int left = remainingMs(deadline);
            Conn::ReadStatus st = conn.readLine(
                line, std::min(left, 100), cfg_.maxLineBytes);
            if (st == Conn::ReadStatus::Line)
                break;
            if (st == Conn::ReadStatus::Timeout) {
                if (stopping_) {
                    closing = true;
                    break;
                }
                if (left > 100)
                    continue;
                conn.writeLine(errLine(
                    "", err::TIMEOUT,
                    "no complete frame within idle_timeout_ms=" +
                        std::to_string(cfg_.idleTimeoutMs)));
                closing = true;
                break;
            }
            if (st == Conn::ReadStatus::Overflow) {
                nBadRequests_.fetch_add(1,
                                        std::memory_order_relaxed);
                conn.writeLine(errLine(
                    "", err::TOO_LARGE,
                    "frame exceeds max_line_bytes=" +
                        std::to_string(cfg_.maxLineBytes)));
                closing = true;
                break;
            }
            closing = true; // Eof or Error
            break;
        }
        if (closing)
            break;
        if (!handleLine(conn, line))
            break;
    }
    conn.close();
    nActiveConns_.fetch_sub(1, std::memory_order_relaxed);
}

bool
SweepServer::handleLine(Conn &conn, const std::string &line)
{
    Request req;
    std::string perr;
    if (!parseRequest(line, req, perr)) {
        nBadRequests_.fetch_add(1, std::memory_order_relaxed);
        return conn.writeLine(errLine("", err::BAD_REQUEST, perr));
    }
    switch (req.verb) {
    case Request::Verb::Hello:
        return conn.writeLine(formatResponse(
            Response::Kind::Ok, req.id,
            {{"proto", std::to_string(PROTO_VERSION)},
             {"fingerprint", hex16(fingerprint_)},
             {"window", std::to_string(cfg_.exp.productionWindow)},
             {"jobs",
              std::to_string(pool_ ? pool_->threadCount() : 0)}}));
    case Request::Verb::Ping:
        return conn.writeLine(
            formatResponse(Response::Kind::Ok, req.id));
    case Request::Verb::Stats: {
        ServerStats s = stats();
        return conn.writeLine(formatResponse(
            Response::Kind::Ok, req.id,
            {{"connections", std::to_string(s.connections)},
             {"active", std::to_string(s.activeConnections)},
             {"admitted", std::to_string(s.admitted)},
             {"rejected", std::to_string(s.rejectedOverload)},
             {"bad_requests", std::to_string(s.badRequests)},
             {"timeouts", std::to_string(s.timeouts)},
             {"rows", std::to_string(s.rowsStreamed)},
             {"inflight", std::to_string(s.inflightCells)},
             {"memo_hits", std::to_string(s.memoHits)},
             {"memo_misses", std::to_string(s.memoMisses)},
             {"cache_loaded", std::to_string(s.cacheLoaded)},
             {"cache_rejected", std::to_string(s.cacheRejected)}}));
    }
    case Request::Verb::Sweep:
        return handleSweep(conn, req);
    case Request::Verb::Prog:
        return handleProg(conn, req);
    case Request::Verb::Quit:
        conn.writeLine(formatResponse(Response::Kind::Bye, req.id));
        return false;
    }
    return false; // unreachable; parseRequest rejects unknown verbs
}

bool
SweepServer::handleSweep(Conn &conn, const Request &req)
{
    if (stopping_)
        return conn.writeLine(errLine(req.id, err::SHUTTING_DOWN,
                                      "server is draining"));
    if (req.hasFingerprint && req.fingerprint != fingerprint_) {
        nBadRequests_.fetch_add(1, std::memory_order_relaxed);
        return conn.writeLine(
            errLine(req.id, err::CONFIG_MISMATCH,
                    "server fingerprint is " + hex16(fingerprint_) +
                        ", request pinned " +
                        hex16(req.fingerprint)));
    }

    // Plan every cell before anything is claimed: a rejected request
    // must not cost a window's runner, an admission slot or a
    // computation.  The canonical specs become the row labels, so
    // two clients spelling one cell differently share one memo entry.
    std::vector<PlannedCell> cells;
    try {
        cells = planSweep(req, cfg_.exp);
    } catch (const workload::SpecError &e) {
        nBadRequests_.fetch_add(1, std::memory_order_relaxed);
        return conn.writeLine(errLine(req.id, err::BAD_SPEC, e.what()));
    }

    // Admission counts cells, not rows: a chip cell is one
    // simulation however many rows it streams.
    const std::size_t ncells = cells.size();
    if (ncells > cfg_.maxCellsPerRequest) {
        nBadRequests_.fetch_add(1, std::memory_order_relaxed);
        return conn.writeLine(errLine(
            req.id, err::TOO_LARGE,
            std::to_string(ncells) +
                " cells exceed max_cells_per_request=" +
                std::to_string(cfg_.maxCellsPerRequest)));
    }

    std::uint64_t window =
        req.window ? req.window : cfg_.exp.productionWindow;
    std::string rerr;
    exp::Runner *runner = runnerFor(window, rerr);
    if (!runner) {
        nBadRequests_.fetch_add(1, std::memory_order_relaxed);
        return conn.writeLine(errLine(req.id, err::TOO_LARGE, rerr));
    }

    // Admission control: reserve the whole request's cells against
    // the queue bound, or bounce it with a retry hint.
    std::uint64_t cur = inflightCells_.load();
    for (;;) {
        if (cur + ncells > cfg_.queueLimit) {
            nRejectedOverload_.fetch_add(1,
                                         std::memory_order_relaxed);
            return conn.writeLine(errLine(
                req.id, err::OVERLOAD,
                std::to_string(cur) + " cells in flight; " +
                    std::to_string(ncells) +
                    " more would exceed queue_limit=" +
                    std::to_string(cfg_.queueLimit),
                cfg_.retryAfterMs));
        }
        if (inflightCells_.compare_exchange_weak(cur, cur + ncells))
            break;
    }
    nAdmitted_.fetch_add(ncells, std::memory_order_relaxed);

    // One pool job per cell.  Each job releases its admission slot
    // whether it succeeds, throws, or outlives a timed-out request
    // (the shared promise keeps the result alive for the memo).
    std::vector<std::shared_future<std::vector<SweepRow>>> futs;
    futs.reserve(ncells);
    for (PlannedCell &cell : cells) {
        auto prom =
            std::make_shared<std::promise<std::vector<SweepRow>>>();
        futs.push_back(prom->get_future().share());
        pool_->submit([this, runner, prom, cell = std::move(cell)]() {
            // Decrement *before* fulfilling the promise: a client
            // that has seen its last ROW (and therefore DONE) must
            // observe inflightCells == 0 in STATS.
            try {
                std::vector<SweepRow> rows = runCell(*runner, cell);
                inflightCells_.fetch_sub(1,
                                         std::memory_order_relaxed);
                prom->set_value(std::move(rows));
            } catch (...) {
                inflightCells_.fetch_sub(1,
                                         std::memory_order_relaxed);
                prom->set_exception(std::current_exception());
            }
        });
    }

    int timeout = cfg_.requestTimeoutMs;
    if (req.timeoutMs > 0)
        timeout = std::min(timeout, req.timeoutMs);
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout);

    std::uint64_t rows = 0, hits = 0, misses = 0;
    for (const auto &fut : futs) {
        if (fut.wait_until(deadline) != std::future_status::ready) {
            nTimeouts_.fetch_add(1, std::memory_order_relaxed);
            return conn.writeLine(errLine(
                req.id, err::TIMEOUT,
                "deadline exceeded after " + std::to_string(rows) +
                    " rows (remaining cells keep computing and "
                    "warm the memo for a retry)"));
        }
        const std::vector<SweepRow> *cellRows = nullptr;
        try {
            cellRows = &fut.get();
        } catch (const workload::SpecError &e) {
            nBadRequests_.fetch_add(1, std::memory_order_relaxed);
            return conn.writeLine(
                errLine(req.id, err::BAD_SPEC, e.what()));
        } catch (const std::exception &e) {
            return conn.writeLine(
                errLine(req.id, err::INTERNAL, e.what()));
        }
        for (const SweepRow &row : *cellRows) {
            (row.memoHit ? hits : misses) += 1;
            // rowLine() is exactly what `mcd_client --local` prints;
            // the memo flag rides after it.
            std::string line =
                formatResponse(Response::Kind::Row, req.id) + ' ' +
                rowLine(row) + " memo=" +
                (row.memoHit ? "hit" : "miss");
            if (!conn.writeLine(line))
                return false;  // peer gone; the jobs finish anyway
            ++rows;
            nRowsStreamed_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    return conn.writeLine(formatResponse(
        Response::Kind::Done, req.id,
        {{"rows", std::to_string(rows)},
         {"hits", std::to_string(hits)},
         {"misses", std::to_string(misses)}}));
}

bool
SweepServer::handleProg(Conn &conn, const Request &req)
{
    if (stopping_)
        return conn.writeLine(errLine(req.id, err::SHUTTING_DOWN,
                                      "server is draining"));
    if (req.progLines > cfg_.maxProgLines) {
        nBadRequests_.fetch_add(1, std::memory_order_relaxed);
        // The payload was never read, so the stream cannot be
        // resynchronized — reject and close.
        conn.writeLine(errLine(
            req.id, err::TOO_LARGE,
            std::to_string(req.progLines) +
                " program lines exceed max_prog_lines=" +
                std::to_string(cfg_.maxProgLines)));
        return false;
    }
    std::string text;
    for (std::size_t i = 0; i < req.progLines; ++i) {
        std::string line;
        Conn::ReadStatus st = conn.readLine(
            line, cfg_.idleTimeoutMs, cfg_.maxLineBytes);
        if (st != Conn::ReadStatus::Line) {
            nBadRequests_.fetch_add(1, std::memory_order_relaxed);
            conn.writeLine(errLine(
                req.id, err::BAD_REQUEST,
                "program upload truncated at line " +
                    std::to_string(i) + " of " +
                    std::to_string(req.progLines)));
            return false;
        }
        text += line;
        text += '\n';
    }
    try {
        std::string handle =
            workload::WorkloadRegistry::instance().addProgram(text);
        return conn.writeLine(formatResponse(
            Response::Kind::Ok, req.id, {{"handle", handle}}));
    } catch (const workload::SpecError &e) {
        nBadRequests_.fetch_add(1, std::memory_order_relaxed);
        return conn.writeLine(
            errLine(req.id, err::BAD_SPEC, e.what()));
    }
}

} // namespace mcd::srv
