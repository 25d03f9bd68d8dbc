#include "srv/server.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <utility>
#include <vector>

#include <poll.h>

#include "chip/multi.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"

namespace mcd::srv
{

namespace
{

using Clock = std::chrono::steady_clock;

int
remainingMs(Clock::time_point deadline)
{
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
    return left < 0 ? 0 : static_cast<int>(left);
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

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
    if (req.hasTiles)
        return handleChipSweep(conn, req);

    // Validate every spec up front — a bad cell must be rejected
    // before any cell is admitted or computed.  The canonical spec
    // strings become the row labels, making the dedup identity
    // visible to the client.
    std::vector<std::string> benches;
    std::vector<control::PolicySpec> specs;
    try {
        for (const auto &w : req.workloads)
            benches.push_back(workload::canonicalWorkloadSpec(w));
        for (const auto &p : req.policies)
            specs.push_back(control::canonicalPolicySpec(p));
    } catch (const workload::SpecError &e) {
        nBadRequests_.fetch_add(1, std::memory_order_relaxed);
        return conn.writeLine(errLine(req.id, err::BAD_SPEC, e.what()));
    }

    const std::size_t ncells = benches.size() * specs.size();
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
    struct Cell
    {
        const std::string *bench;
        const control::PolicySpec *spec;
        std::shared_future<std::pair<exp::Outcome, bool>> fut;
    };
    std::vector<Cell> cells;
    cells.reserve(ncells);
    for (const auto &b : benches) {
        for (const auto &s : specs) {
            auto prom = std::make_shared<
                std::promise<std::pair<exp::Outcome, bool>>>();
            cells.push_back({&b, &s, prom->get_future().share()});
            std::string bench = b;
            control::PolicySpec spec = s;
            pool_->submit([this, runner, prom,
                           bench = std::move(bench),
                           spec = std::move(spec)]() {
                // Decrement *before* fulfilling the promise: a
                // client that has seen its last ROW (and therefore
                // DONE) must observe inflightCells == 0 in STATS.
                try {
                    bool hit = false;
                    exp::Outcome o = runner->run(bench, spec, &hit);
                    inflightCells_.fetch_sub(
                        1, std::memory_order_relaxed);
                    prom->set_value({o, hit});
                } catch (...) {
                    inflightCells_.fetch_sub(
                        1, std::memory_order_relaxed);
                    prom->set_exception(std::current_exception());
                }
            });
        }
    }

    int timeout = cfg_.requestTimeoutMs;
    if (req.timeoutMs > 0)
        timeout = std::min(timeout, req.timeoutMs);
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout);

    std::uint64_t rows = 0, hits = 0, misses = 0;
    for (const auto &cell : cells) {
        if (cell.fut.wait_until(deadline) !=
            std::future_status::ready) {
            nTimeouts_.fetch_add(1, std::memory_order_relaxed);
            return conn.writeLine(errLine(
                req.id, err::TIMEOUT,
                "deadline exceeded after " + std::to_string(rows) +
                    " rows (remaining cells keep computing and "
                    "warm the memo for a retry)"));
        }
        exp::Outcome o;
        bool hit = false;
        try {
            auto r = cell.fut.get();
            o = r.first;
            hit = r.second;
        } catch (const workload::SpecError &e) {
            nBadRequests_.fetch_add(1, std::memory_order_relaxed);
            return conn.writeLine(
                errLine(req.id, err::BAD_SPEC, e.what()));
        } catch (const std::exception &e) {
            return conn.writeLine(
                errLine(req.id, err::INTERNAL, e.what()));
        }
        (hit ? hits : misses) += 1;
        // The row embeds resultLine() verbatim (workload, policy,
        // outcome fields) with the memo flag appended, so clients
        // can recover the exact `mcd_client --local` bytes.
        std::string row = formatResponse(Response::Kind::Row,
                                         req.id);
        row += ' ';
        row += resultLine(*cell.bench, cell.spec->str(), o);
        row += " memo=";
        row += hit ? "hit" : "miss";
        if (!conn.writeLine(row))
            return false; // peer gone mid-stream; jobs finish anyway
        ++rows;
        nRowsStreamed_.fetch_add(1, std::memory_order_relaxed);
    }
    return conn.writeLine(formatResponse(
        Response::Kind::Done, req.id,
        {{"rows", std::to_string(rows)},
         {"hits", std::to_string(hits)},
         {"misses", std::to_string(misses)}}));
}

bool
SweepServer::handleChipSweep(Conn &conn, const Request &req)
{
    // handleSweep already handled the drain and fingerprint gates.
    // The runner comes first here: chip validation (coordinator
    // spec, tile capability) lives behind Runner::chipCacheKeys.
    std::uint64_t window =
        req.window ? req.window : cfg_.exp.productionWindow;
    std::string rerr;
    exp::Runner *runner = runnerFor(window, rerr);
    if (!runner) {
        nBadRequests_.fetch_add(1, std::memory_order_relaxed);
        return conn.writeLine(errLine(req.id, err::TOO_LARGE, rerr));
    }

    // Validate every chip cell up front; the canonical multi spec
    // and tile policy become the row labels, so two clients spelling
    // one co-schedule differently still share one computation.
    struct ChipJob
    {
        exp::ChipCell cell;
        std::string multi;   ///< canonical multi: spec (row label)
        std::string policy;  ///< canonical tile policy (row label)
        std::size_t tiles = 0;
        std::shared_future<std::pair<std::vector<exp::Outcome>,
                                     std::vector<bool>>>
            fut;
    };
    std::vector<ChipJob> jobs;
    jobs.reserve(req.workloads.size() * req.policies.size());
    for (const auto &w : req.workloads) {
        for (const auto &p : req.policies) {
            ChipJob j;
            j.cell.workload = w;
            j.cell.tiles = static_cast<int>(req.tiles);
            j.cell.coord = req.coord;
            try {
                j.cell.tilePolicy = control::canonicalPolicySpec(p);
                j.policy = j.cell.tilePolicy.str();
                std::vector<std::string> tile_specs =
                    chip::parseMultiSpec(w, j.cell.tiles);
                j.multi = chip::multiSpecOf(tile_specs);
                j.tiles = tile_specs.size();
                // Full validation (coordinator spec, tile-capable
                // policy) before anything is admitted.
                runner->chipCacheKeys(j.cell);
            } catch (const workload::SpecError &e) {
                nBadRequests_.fetch_add(1,
                                        std::memory_order_relaxed);
                return conn.writeLine(
                    errLine(req.id, err::BAD_SPEC, e.what()));
            }
            jobs.push_back(std::move(j));
        }
    }

    // Admission counts whole chips: one cell = one simulation,
    // however many rows it streams.
    const std::size_t ncells = jobs.size();
    if (ncells > cfg_.maxCellsPerRequest) {
        nBadRequests_.fetch_add(1, std::memory_order_relaxed);
        return conn.writeLine(errLine(
            req.id, err::TOO_LARGE,
            std::to_string(ncells) +
                " cells exceed max_cells_per_request=" +
                std::to_string(cfg_.maxCellsPerRequest)));
    }
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

    for (auto &j : jobs) {
        auto prom = std::make_shared<std::promise<
            std::pair<std::vector<exp::Outcome>,
                      std::vector<bool>>>>();
        j.fut = prom->get_future().share();
        exp::ChipCell cell = j.cell;
        pool_->submit([this, runner, prom,
                       cell = std::move(cell)]() {
            try {
                std::vector<bool> hits;
                std::vector<exp::Outcome> rows =
                    runner->runChip(cell, &hits);
                inflightCells_.fetch_sub(1,
                                         std::memory_order_relaxed);
                prom->set_value({std::move(rows), std::move(hits)});
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
    for (const auto &j : jobs) {
        if (j.fut.wait_until(deadline) !=
            std::future_status::ready) {
            nTimeouts_.fetch_add(1, std::memory_order_relaxed);
            return conn.writeLine(errLine(
                req.id, err::TIMEOUT,
                "deadline exceeded after " + std::to_string(rows) +
                    " rows (remaining cells keep computing and "
                    "warm the memo for a retry)"));
        }
        std::vector<exp::Outcome> cellRows;
        std::vector<bool> cellHits;
        try {
            auto r = j.fut.get();
            cellRows = std::move(r.first);
            cellHits = std::move(r.second);
        } catch (const workload::SpecError &e) {
            nBadRequests_.fetch_add(1, std::memory_order_relaxed);
            return conn.writeLine(
                errLine(req.id, err::BAD_SPEC, e.what()));
        } catch (const std::exception &e) {
            return conn.writeLine(
                errLine(req.id, err::INTERNAL, e.what()));
        }
        for (std::size_t k = 0; k < cellRows.size(); ++k) {
            bool hit = k < cellHits.size() && cellHits[k];
            (hit ? hits : misses) += 1;
            std::string row =
                formatResponse(Response::Kind::Row, req.id);
            row += " tile=" + tileLabel(k, j.tiles);
            row += ' ';
            row += resultLine(j.multi, j.policy, cellRows[k]);
            row += " memo=";
            row += hit ? "hit" : "miss";
            if (!conn.writeLine(row))
                return false;
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
