/**
 * @file
 * The sweep-server test suite: golden request/response transcripts
 * pinned byte-for-byte, the fault-injection sweep (drop / truncate /
 * garble / slow-loris / mid-frame disconnect — structured errors or
 * clean disconnects, never a crash or hang), admission control,
 * per-request deadlines, graceful drain, program upload, and the
 * acceptance gate: N concurrent clients on overlapping cells get
 * byte-identical results to a serial in-process run, with duplicate
 * cells computed exactly once (asserted via the runner's memo
 * counters).
 *
 * Every read carries a bounded deadline, so a regression hangs a
 * single EXPECT, not the whole suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hh"
#include "faults.hh"
#include "srv/client.hh"
#include "srv/net.hh"
#include "srv/proto.hh"
#include "srv/server.hh"
#include "srv/sweep.hh"
#include "workload/registry.hh"

using namespace mcd;

namespace
{

/** Watchdog for every blocking read in this suite. */
constexpr int kIoMs = 60'000;

/** Small windows so cells stay test-sized (mirrors
 *  test_exp_parallel.cc). */
mcd::exp::ExpConfig
smallExp()
{
    mcd::exp::ExpConfig cfg;
    cfg.productionWindow = 8'000;
    cfg.analysisWindow = 8'000;
    cfg.offlineInterval = 4'000;
    cfg.jobs = 2;
    cfg.cacheFile.clear();
    return cfg;
}

srv::ServerConfig
smallServer()
{
    srv::ServerConfig cfg;
    cfg.tcpPort = 0;  // ephemeral
    cfg.exp = smallExp();
    return cfg;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** start()s on construction, stop()s on destruction. */
struct ScopedServer
{
    srv::SweepServer server;

    explicit ScopedServer(srv::ServerConfig cfg = smallServer())
        : server(std::move(cfg))
    {
        server.start();
    }
    ~ScopedServer() { server.stop(); }

    srv::Client client()
    {
        return srv::Client::connectTcp(server.tcpPort());
    }
    srv::Conn raw() { return srv::connectTcp(server.tcpPort()); }
};

/** Read one line or fail the test; never blocks past the watchdog. */
std::string
readLineChecked(srv::Conn &conn, int timeout_ms = kIoMs)
{
    std::string line;
    srv::Conn::ReadStatus st =
        conn.readLine(line, timeout_ms, 256 * 1024);
    EXPECT_EQ(st, srv::Conn::ReadStatus::Line)
        << "readLine status " << static_cast<int>(st);
    return line;
}

/** The serial in-process reference for one cell: what `mcd_client
 *  --local --jobs 1` prints, and what every remote row must match
 *  byte-for-byte. */
std::vector<std::string>
referenceLines(const mcd::exp::ExpConfig &cfg,
               const std::vector<std::string> &workloads,
               const std::vector<std::string> &policies)
{
    mcd::exp::ExpConfig serial = cfg;
    serial.jobs = 1;
    mcd::exp::Runner runner(serial);
    std::vector<std::string> lines;
    for (const auto &w : workloads) {
        std::string canonW = workload::canonicalWorkloadSpec(w);
        for (const auto &p : policies) {
            control::PolicySpec spec;
            std::string err;
            EXPECT_TRUE(control::parseSpec(p, spec, err)) << err;
            EXPECT_TRUE(
                control::PolicyRegistry::instance().canonicalize(
                    spec, err))
                << err;
            mcd::exp::Outcome o = runner.run(canonW, spec);
            lines.push_back(
                srv::resultLine(canonW, spec.str(), o));
        }
    }
    return lines;
}

const char *const kTinyProgram = R"(
program: name=tiny_srv, entry=main
input: set=train, seed=3, scale=1.0
input: set=ref, seed=4, scale=1.3
mix: id=a, load=0.3, branch=0.1, ws=1048576, stream=0.3
func: name=main
  loop: trips=6, scale=1.0
    block: mix=a, n=50
  end
)";

} // namespace

// ---------------------------------------------------------------- //
// Golden transcripts                                               //
// ---------------------------------------------------------------- //

TEST(ServerTranscript, HelloPingQuitGolden)
{
    ScopedServer s;
    srv::Conn conn = s.raw();

    ASSERT_TRUE(conn.writeLine("MCD/2 HELLO id=t1"));
    EXPECT_EQ(readLineChecked(conn),
              "MCD/2 OK id=t1 proto=2 fingerprint=" +
                  hex16(s.server.fingerprint()) +
                  " window=8000 jobs=2");

    ASSERT_TRUE(conn.writeLine("MCD/2 PING"));
    EXPECT_EQ(readLineChecked(conn), "MCD/2 OK");

    ASSERT_TRUE(conn.writeLine("MCD/2 QUIT id=bye"));
    EXPECT_EQ(readLineChecked(conn), "MCD/2 BYE id=bye");

    // After BYE the server closes its side.
    std::string rest;
    EXPECT_EQ(conn.readLine(rest, kIoMs, 1024),
              srv::Conn::ReadStatus::Eof);
}

TEST(ServerTranscript, SweepRowAndDoneGolden)
{
    srv::ServerConfig cfg = smallServer();
    ScopedServer s(cfg);
    std::vector<std::string> ref =
        referenceLines(cfg.exp, {"gsm_decode"}, {"baseline"});
    ASSERT_EQ(ref.size(), 1u);

    srv::Conn conn = s.raw();
    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=s1 workload=gsm_decode policy=baseline"));
    EXPECT_EQ(readLineChecked(conn),
              "MCD/2 ROW id=s1 " + ref[0] + " memo=miss");
    EXPECT_EQ(readLineChecked(conn),
              "MCD/2 DONE id=s1 rows=1 hits=0 misses=1");
}

TEST(ServerTranscript, ChipSweepRowsGolden)
{
    srv::ServerConfig cfg = smallServer();
    ScopedServer s(cfg);

    // The serial in-process reference: the same ChipCell through a
    // jobs=1 Runner, labelled exactly as the server labels its rows.
    mcd::exp::ExpConfig serial = cfg.exp;
    serial.jobs = 1;
    mcd::exp::Runner runner(serial);
    mcd::exp::ChipCell cell;
    cell.workload = "multi:t0=gsm_decode,t1=adpcm_decode";
    auto rows = runner.runChip(cell);
    ASSERT_EQ(rows.size(), 3u);

    srv::Conn conn = s.raw();
    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=ch1 "
        "workload=multi:t0=gsm_decode,t1=adpcm_decode "
        "policy=baseline tiles=0"));
    for (std::size_t k = 0; k < rows.size(); ++k)
        EXPECT_EQ(readLineChecked(conn),
                  "MCD/2 ROW id=ch1 tile=" + srv::tileLabel(k, 2) +
                      ' ' +
                      srv::resultLine(
                          "multi:t0=gsm_decode,t1=adpcm_decode",
                          "baseline", rows[k]) +
                      " memo=miss");
    EXPECT_EQ(readLineChecked(conn),
              "MCD/2 DONE id=ch1 rows=3 hits=0 misses=3");

    // The same cell again is served entirely from the memo.
    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=ch2 "
        "workload=multi:t0=gsm_decode,t1=adpcm_decode "
        "policy=baseline tiles=0"));
    for (std::size_t k = 0; k < rows.size(); ++k)
        readLineChecked(conn);
    EXPECT_EQ(readLineChecked(conn),
              "MCD/2 DONE id=ch2 rows=3 hits=3 misses=0");
}

TEST(ServerTranscript, ChipSweepBadSpecsAreStructured)
{
    ScopedServer s;
    srv::Conn conn = s.raw();

    // coord= without tiles= is a grammar error, not a spec error.
    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=cb1 workload=gsm_decode policy=baseline "
        "coord=chip-coord:hi=0.5"));
    EXPECT_EQ(readLineChecked(conn),
              "MCD/2 ERR code=bad-request msg=coord= needs tiles= "
              "(chip sweeps only)");

    // A tile policy that cannot drive tiles names the capable ones.
    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=cb2 workload=gsm_decode policy=profile "
        "tiles=2"));
    std::string line = readLineChecked(conn);
    EXPECT_NE(line.find("ERR id=cb2 code=bad-spec"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("tile-capable"), std::string::npos) << line;

    // A malformed co-schedule surfaces the multi: grammar message.
    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=cb3 workload=multi:t0=gsm_decode,t5=mcf "
        "policy=baseline tiles=0"));
    line = readLineChecked(conn);
    EXPECT_NE(line.find("ERR id=cb3 code=bad-spec"),
              std::string::npos)
        << line;

    // The connection survives all of it.
    ASSERT_TRUE(conn.writeLine("MCD/2 PING"));
    EXPECT_EQ(readLineChecked(conn), "MCD/2 OK");
}

TEST(ServerTranscript, ChipSweepErrorIsThePlannersError)
{
    srv::ServerConfig cfg = smallServer();
    ScopedServer s(cfg);

    // Two bad specs: the co-schedule and the second policy.  The
    // server reports whichever the shared planner finds first — the
    // same message `mcd_client --local` prints.
    srv::Request req;
    req.verb = srv::Request::Verb::Sweep;
    req.id = "cp1";
    req.workloads = {"multi:t0=gsm_decode,t5=mcf"};
    req.policies = {"baseline", "nosuch"};
    req.hasTiles = true;
    std::string planned;
    try {
        srv::planSweep(req, cfg.exp);
        FAIL() << "expected a SpecError";
    } catch (const workload::SpecError &e) {
        planned = e.what();
    }
    EXPECT_NE(planned.find("multi:"), std::string::npos) << planned;

    srv::Conn conn = s.raw();
    ASSERT_TRUE(conn.writeLine(srv::formatRequest(req)));
    EXPECT_EQ(readLineChecked(conn),
              "MCD/2 ERR id=cp1 code=bad-spec msg=" + planned);
}

TEST(ServerTranscript, ErrorRepliesGolden)
{
    ScopedServer s;
    srv::Conn conn = s.raw();

    const struct
    {
        const char *request;
        const char *reply;
    } cases[] = {
        {"garbage in",
         "MCD/2 ERR code=bad-request msg=bad protocol tag "
         "'garbage' (expected MCD/2)"},
        {"MCD/9 PING",
         "MCD/2 ERR code=bad-request msg=unsupported protocol "
         "version 'MCD/9' (this server speaks MCD/2)"},
        {"MCD/2 FROB",
         "MCD/2 ERR code=bad-request msg=unknown verb 'FROB'"},
        {"MCD/2  PING",
         "MCD/2 ERR code=bad-request msg=empty token (stray "
         "space) at byte 6"},
        {"MCD/2 SWEEP policy=baseline",
         "MCD/2 ERR code=bad-request msg=SWEEP needs at least one "
         "workload= and one policy="},
        {"MCD/2 SWEEP id=w workload=gsm_decode policy=baseline "
         "window=0",
         "MCD/2 ERR code=bad-request msg=bad window '0'"},
        {"MCD/2 PING frob=1",
         "MCD/2 ERR code=bad-request msg=unknown key 'frob' for "
         "verb PING"},
    };
    // The connection survives every one of these: a malformed frame
    // poisons the request, not the session.
    for (const auto &c : cases) {
        ASSERT_TRUE(conn.writeLine(c.request)) << c.request;
        EXPECT_EQ(readLineChecked(conn), c.reply) << c.request;
    }
    ASSERT_TRUE(conn.writeLine("MCD/2 PING"));
    EXPECT_EQ(readLineChecked(conn), "MCD/2 OK");
}

TEST(ServerTranscript, BadSpecsNameTheRegistries)
{
    ScopedServer s;
    srv::Conn conn = s.raw();

    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=b1 workload=no_such policy=baseline"));
    std::string line = readLineChecked(conn);
    EXPECT_NE(line.find("ERR id=b1 code=bad-spec"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("known:"), std::string::npos) << line;

    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=b2 workload=gsm_decode policy=no_such"));
    line = readLineChecked(conn);
    EXPECT_NE(line.find("ERR id=b2 code=bad-spec"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("known:"), std::string::npos) << line;

    // A known policy with a junk parameter lists what it takes.
    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=b3 workload=gsm_decode policy=offline:z=1"));
    line = readLineChecked(conn);
    EXPECT_NE(line.find("ERR id=b3 code=bad-spec"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("takes:"), std::string::npos) << line;

    // The chip coordinator names a chip's uncore controller (coord=),
    // never a single-core policy.
    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=b4 workload=gsm_decode policy=chip-coord"));
    line = readLineChecked(conn);
    EXPECT_NE(line.find("ERR id=b4 code=bad-spec"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("unknown policy 'chip-coord'"),
              std::string::npos)
        << line;

    // Every refusal came before any admission slot or memo entry was
    // taken, and the connection keeps serving.
    ASSERT_TRUE(conn.writeLine("MCD/2 PING"));
    EXPECT_EQ(readLineChecked(conn), "MCD/2 OK");
    ASSERT_TRUE(conn.writeLine("MCD/2 STATS"));
    line = readLineChecked(conn);
    EXPECT_NE(line.find(" memo_misses=0"), std::string::npos) << line;
    EXPECT_NE(line.find(" inflight=0"), std::string::npos) << line;
}

// ---------------------------------------------------------------- //
// Framing robustness                                               //
// ---------------------------------------------------------------- //

TEST(ServerFraming, PartialFramesAssemble)
{
    ScopedServer s;
    srv::Conn conn = s.raw();
    // One frame dribbled across three writes, plus the start of the
    // next — the reader must assemble on '\n', not on recv()
    // boundaries.
    ASSERT_TRUE(conn.writeAll("MCD/2 PI"));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(conn.writeAll("NG id="));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(conn.writeAll("p1\nMCD/2 PING id=p2\n"));
    EXPECT_EQ(readLineChecked(conn), "MCD/2 OK id=p1");
    EXPECT_EQ(readLineChecked(conn), "MCD/2 OK id=p2");
}

TEST(ServerFraming, OversizeFrameRejectedAndClosed)
{
    srv::ServerConfig cfg = smallServer();
    cfg.maxLineBytes = 256;
    ScopedServer s(cfg);
    srv::Conn conn = s.raw();
    std::string big = "MCD/2 PING id=";
    big.append(1000, 'x');
    ASSERT_TRUE(conn.writeLine(big));
    std::string line = readLineChecked(conn);
    EXPECT_NE(line.find("code=too-large"), std::string::npos)
        << line;
    std::string rest;
    EXPECT_EQ(conn.readLine(rest, kIoMs, 1024),
              srv::Conn::ReadStatus::Eof);
}

TEST(ServerFraming, SlowLorisIsDisconnected)
{
    srv::ServerConfig cfg = smallServer();
    cfg.idleTimeoutMs = 300;
    ScopedServer s(cfg);
    srv::Conn conn = s.raw();
    // ~11 bytes at 100ms apart cannot finish inside 300ms; the
    // deadline runs from the first byte, so trickling does not help.
    srv::injectSend(conn, "MCD/2 PING", srv::Fault::SlowLoris,
                    /*seed=*/1, /*dribble_ms=*/100);
    std::string line;
    srv::Conn::ReadStatus st = conn.readLine(line, kIoMs, 4096);
    if (st == srv::Conn::ReadStatus::Line) {
        EXPECT_NE(line.find("code=timeout"), std::string::npos)
            << line;
        EXPECT_EQ(conn.readLine(line, kIoMs, 4096),
                  srv::Conn::ReadStatus::Eof);
    } else {
        // The peer may drop us without the courtesy line if our
        // dribble raced the shutdown of the write side.
        EXPECT_EQ(st, srv::Conn::ReadStatus::Eof);
    }
    // The server itself is unharmed.
    srv::Client probe = s.client();
    probe.ping();
}

TEST(ServerFaults, EveryFaultLeavesTheServerServing)
{
    ScopedServer s;
    const std::string sweep =
        "MCD/2 SWEEP id=f1 workload=gsm_decode policy=baseline";
    for (srv::Fault f : srv::allFaults()) {
        SCOPED_TRACE(srv::faultName(f));
        for (std::uint32_t seed = 1; seed <= 4; ++seed) {
            srv::Conn conn = s.raw();
            srv::injectSend(conn, sweep, f, seed,
                            /*dribble_ms=*/1);
            // Half-close: the server sees EOF after whatever arrived,
            // answers it (rows, a structured error, or nothing) and
            // closes, so the drain ends on that event — never on a
            // read timeout.  (DisconnectMidFrame already closed us.)
            conn.shutdownWrite();
            std::string line;
            srv::Conn::ReadStatus st;
            do {
                st = conn.readLine(line, kIoMs, 256 * 1024);
            } while (st == srv::Conn::ReadStatus::Line);
            EXPECT_NE(st, srv::Conn::ReadStatus::Timeout);
            conn.close();
        }
        // After every abuse round the server still answers cleanly.
        srv::Client probe = s.client();
        probe.ping();
    }
}

TEST(ServerFaults, MidSweepDisconnectLeavesServerHealthy)
{
    ScopedServer s;
    {
        srv::Conn conn = s.raw();
        ASSERT_TRUE(
            conn.writeLine("MCD/2 SWEEP id=d1 "
                           "workload=gsm_decode "
                           "workload=adpcm_decode "
                           "policy=baseline policy=offline:d=10"));
        // Take one row, then vanish mid-stream.
        readLineChecked(conn);
        conn.close();
    }
    // The abandoned cells drain (admission slots come back) and the
    // same sweep then completes for a well-behaved client.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    while (s.server.stats().inflightCells != 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "inflight cells never drained";
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    srv::Client client = s.client();
    srv::SweepReply reply =
        client.sweep({"gsm_decode", "adpcm_decode"},
                     {"baseline", "offline:d=10"});
    EXPECT_EQ(reply.rows.size(), 4u);
}

// ---------------------------------------------------------------- //
// Admission control and deadlines                                  //
// ---------------------------------------------------------------- //

TEST(ServerAdmission, OverloadRejectedWithRetryHint)
{
    srv::ServerConfig cfg = smallServer();
    cfg.queueLimit = 0;  // every cell overflows the queue
    cfg.retryAfterMs = 123;
    ScopedServer s(cfg);
    srv::Client client = s.client();
    try {
        client.sweep({"gsm_decode"}, {"baseline"});
        FAIL() << "expected overload";
    } catch (const srv::ClientError &e) {
        EXPECT_EQ(e.code(), srv::err::OVERLOAD);
        EXPECT_EQ(e.retryMs(), 123);
    }
    EXPECT_EQ(s.server.stats().rejectedOverload, 1u);
}

TEST(ServerAdmission, TooManyCellsRejected)
{
    srv::ServerConfig cfg = smallServer();
    cfg.maxCellsPerRequest = 2;
    ScopedServer s(cfg);
    srv::Client client = s.client();
    try {
        client.sweep({"gsm_decode", "adpcm_decode"},
                     {"baseline", "offline:d=10"});
        FAIL() << "expected too-large";
    } catch (const srv::ClientError &e) {
        EXPECT_EQ(e.code(), srv::err::TOO_LARGE);
    }
}

TEST(ServerAdmission, WindowPoolIsBounded)
{
    srv::ServerConfig cfg = smallServer();
    cfg.maxWindows = 1;
    ScopedServer s(cfg);
    srv::Client client = s.client();
    EXPECT_EQ(
        client.sweep({"gsm_decode"}, {"baseline"}, /*window=*/4'000)
            .rows.size(),
        1u);
    try {
        client.sweep({"gsm_decode"}, {"baseline"}, /*window=*/5'000);
        FAIL() << "expected window-pool rejection";
    } catch (const srv::ClientError &e) {
        EXPECT_EQ(e.code(), srv::err::TOO_LARGE);
        EXPECT_NE(std::string(e.what()).find("window pool"),
                  std::string::npos);
    }
}

TEST(ServerAdmission, RejectedChipSweepClaimsNoWindow)
{
    srv::ServerConfig cfg = smallServer();
    cfg.maxWindows = 1;
    ScopedServer s(cfg);
    srv::Client client = s.client();
    // Validation runs before a window's runner is claimed, so a
    // rejected chip sweep leaves the only slot free...
    try {
        client.sweep({"gsm_decode"}, {"profile"}, /*window=*/5'000,
                     0, /*pin=*/false, /*tiles=*/2);
        FAIL() << "expected bad-spec";
    } catch (const srv::ClientError &e) {
        EXPECT_EQ(e.code(), srv::err::BAD_SPEC);
    }
    // ...for a valid sweep at another window.
    EXPECT_EQ(
        client.sweep({"gsm_decode"}, {"baseline"}, /*window=*/6'000)
            .rows.size(),
        1u);
}

TEST(ServerAdmission, ConfigMismatchRejected)
{
    ScopedServer s;
    srv::Conn conn = s.raw();
    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=c1 workload=gsm_decode policy=baseline "
        "fingerprint=0000000000000001"));
    std::string line = readLineChecked(conn);
    EXPECT_NE(line.find("ERR id=c1 code=config-mismatch"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find(hex16(s.server.fingerprint())),
              std::string::npos)
        << line;
}

TEST(ServerAdmission, DeadlineIsStructuredAndMemoStaysWarm)
{
    srv::ServerConfig cfg;
    cfg.tcpPort = 0;
    cfg.exp.jobs = 2;
    cfg.exp.cacheFile.clear();
    // Default (150k-instruction) windows: the cell takes well over
    // the 1ms deadline on any machine.
    cfg.requestTimeoutMs = 1;
    ScopedServer s(cfg);
    srv::Client client = s.client();
    try {
        client.sweep({"gsm_decode"}, {"offline:d=10"});
        FAIL() << "expected timeout";
    } catch (const srv::ClientError &e) {
        EXPECT_EQ(e.code(), srv::err::TIMEOUT);
    }
    EXPECT_GE(s.server.stats().timeouts, 1u);
    // The abandoned cells keep computing and warm the memo; a retry
    // then answers within the same 1ms deadline.  Each retry first
    // waits for every admitted cell to finish, so it never queues
    // behind the still-computing owner cell (retries piling up
    // behind it on a slow machine end in `overload`).
    auto watchdog =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    srv::SweepReply reply;
    bool done = false;
    while (!done) {
        while (s.server.stats().inflightCells != 0) {
            ASSERT_LT(std::chrono::steady_clock::now(), watchdog)
                << "admitted cells never drained";
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        ASSERT_LT(std::chrono::steady_clock::now(), watchdog)
            << "memo never warmed up";
        try {
            reply = client.sweep({"gsm_decode"}, {"offline:d=10"});
            done = true;
        } catch (const srv::ClientError &e) {
            ASSERT_EQ(e.code(), srv::err::TIMEOUT) << e.what();
        }
    }
    ASSERT_EQ(reply.rows.size(), 1u);
    EXPECT_TRUE(reply.rows[0].memoHit);
}

// ---------------------------------------------------------------- //
// Drain                                                            //
// ---------------------------------------------------------------- //

TEST(ServerDrain, AdmittedSweepFinishesThroughStop)
{
    auto s = std::make_unique<ScopedServer>();
    srv::Conn conn = s->raw();
    ASSERT_TRUE(conn.writeLine(
        "MCD/2 SWEEP id=g1 workload=gsm_decode "
        "workload=adpcm_decode policy=baseline "
        "policy=offline:d=10"));
    // First row proves the request was admitted, then stop() races
    // the remaining stream: a clean drain must deliver every row.
    std::string first = readLineChecked(conn);
    EXPECT_NE(first.find("MCD/2 ROW id=g1"), std::string::npos)
        << first;
    std::thread stopper([&] { s->server.stop(); });
    int rows = 1;
    bool done = false;
    for (int i = 0; i < 16 && !done; ++i) {
        std::string line = readLineChecked(conn);
        if (line.find("MCD/2 DONE id=g1") != std::string::npos) {
            EXPECT_NE(line.find("rows=4"), std::string::npos)
                << line;
            done = true;
        } else {
            EXPECT_NE(line.find("MCD/2 ROW id=g1"),
                      std::string::npos)
                << line;
            ++rows;
        }
    }
    stopper.join();
    EXPECT_TRUE(done);
    EXPECT_EQ(rows, 4);
    EXPECT_FALSE(s->server.running());
}

// ---------------------------------------------------------------- //
// Program upload                                                   //
// ---------------------------------------------------------------- //

TEST(ServerProg, UploadRoundTripMatchesLocal)
{
    srv::ServerConfig cfg = smallServer();
    ScopedServer s(cfg);
    srv::Client client = s.client();
    std::string handle = client.uploadProgram(kTinyProgram);
    EXPECT_EQ(handle.rfind("prog:name=tiny_srv,hash=", 0), 0u)
        << handle;
    // Server-side registration is content-addressed like the local
    // path, so the handles and the results agree byte-for-byte.
    EXPECT_EQ(
        workload::WorkloadRegistry::instance().addProgram(
            kTinyProgram),
        handle);
    srv::SweepReply reply = client.sweep({handle}, {"baseline"});
    ASSERT_EQ(reply.rows.size(), 1u);
    std::vector<std::string> ref =
        referenceLines(cfg.exp, {handle}, {"baseline"});
    EXPECT_EQ(srv::resultLine(reply.rows[0].workload,
                              reply.rows[0].policy,
                              reply.rows[0].outcome),
              ref[0]);
}

TEST(ServerProg, OversizeUploadRejected)
{
    srv::ServerConfig cfg = smallServer();
    cfg.maxProgLines = 2;
    ScopedServer s(cfg);
    srv::Client client = s.client();
    try {
        client.uploadProgram(kTinyProgram);
        FAIL() << "expected too-large";
    } catch (const srv::ClientError &e) {
        EXPECT_EQ(e.code(), srv::err::TOO_LARGE);
    }
}

TEST(ServerProg, BadProgramTextIsACatchableError)
{
    ScopedServer s;
    srv::Client client = s.client();
    try {
        client.uploadProgram("program: name=broken\nfunc: nope\n");
        FAIL() << "expected bad-spec";
    } catch (const srv::ClientError &e) {
        EXPECT_EQ(e.code(), srv::err::BAD_SPEC);
    }
    client.ping();  // the connection survives a bad upload
}

TEST(ServerProg, TruncatedUploadDoesNotHang)
{
    srv::ServerConfig cfg = smallServer();
    cfg.idleTimeoutMs = 300;
    ScopedServer s(cfg);
    srv::Conn conn = s.raw();
    ASSERT_TRUE(conn.writeLine("MCD/2 PROG id=p1 lines=5"));
    ASSERT_TRUE(conn.writeLine("program: name=half"));
    conn.shutdownWrite();  // the other four lines never arrive
    std::string line;
    srv::Conn::ReadStatus st = conn.readLine(line, kIoMs, 4096);
    if (st == srv::Conn::ReadStatus::Line)
        EXPECT_NE(line.find("code=bad-request"), std::string::npos)
            << line;
    else
        EXPECT_EQ(st, srv::Conn::ReadStatus::Eof);
    srv::Client probe = s.client();
    probe.ping();
}

// ---------------------------------------------------------------- //
// Transports and client API                                        //
// ---------------------------------------------------------------- //

TEST(ServerTransport, UnixSocketServes)
{
    srv::ServerConfig cfg = smallServer();
    cfg.tcpPort = -1;
    cfg.unixPath = ::testing::TempDir() + "mcd_test_server.sock";
    ScopedServer s(cfg);
    srv::Client client =
        srv::Client::connectUnix(s.server.unixSocketPath());
    client.hello();
    EXPECT_EQ(client.serverFingerprint(), s.server.fingerprint());
    srv::SweepReply reply = client.sweep(
        {"gsm_decode"}, {"baseline"}, 0, 0, /*pin=*/true);
    EXPECT_EQ(reply.rows.size(), 1u);
}

TEST(ServerTransport, StatsCountersProgress)
{
    ScopedServer s;
    srv::Client client = s.client();
    client.hello();
    client.sweep({"gsm_decode"}, {"baseline", "offline:d=10"});
    srv::ServerStats st = s.server.stats();
    EXPECT_GE(st.connections, 1u);
    EXPECT_EQ(st.admitted, 2u);
    EXPECT_EQ(st.rowsStreamed, 2u);
    EXPECT_EQ(st.inflightCells, 0u);
    EXPECT_GE(st.memoMisses, 2u);
    // The wire STATS payload carries the same counters.
    auto fields = client.stats();
    bool sawRows = false;
    for (const auto &kv : fields)
        if (kv.first == "rows") {
            EXPECT_EQ(kv.second, "2");
            sawRows = true;
        }
    EXPECT_TRUE(sawRows);
}

TEST(ServerTransport, ClientChipSweepStreamsLabelledRows)
{
    ScopedServer s;
    srv::Client client = s.client();
    client.hello();
    srv::SweepReply reply = client.sweep(
        {"multi:t0=gsm_decode,t1=adpcm_decode"}, {"baseline"}, 0, 0,
        /*pin=*/true, /*tiles=*/0);
    ASSERT_EQ(reply.rows.size(), 3u);
    EXPECT_EQ(reply.rows[0].tile, "0");
    EXPECT_EQ(reply.rows[1].tile, "1");
    EXPECT_EQ(reply.rows[2].tile, "u");
    for (const auto &row : reply.rows) {
        EXPECT_EQ(row.workload,
                  "multi:t0=gsm_decode,t1=adpcm_decode");
        EXPECT_EQ(row.policy, "baseline");
    }

    // A replicated workload with a coordinator travels the same way.
    srv::SweepReply coord = client.sweep(
        {"gsm_decode"}, {"baseline"}, 0, 0, /*pin=*/false,
        /*tiles=*/2, "chip-coord");
    ASSERT_EQ(coord.rows.size(), 3u);
    EXPECT_EQ(coord.rows[0].workload,
              "multi:t0=gsm_decode,t1=gsm_decode");

    // Single-core rows keep an empty tile label.
    srv::SweepReply plain =
        client.sweep({"gsm_decode"}, {"baseline"});
    ASSERT_EQ(plain.rows.size(), 1u);
    EXPECT_EQ(plain.rows[0].tile, "");
}

// ---------------------------------------------------------------- //
// The acceptance gate: concurrent clients, byte identity,          //
// duplicate suppression                                            //
// ---------------------------------------------------------------- //

TEST(ServerConcurrency, EightClientsByteIdenticalComputedOnce)
{
    srv::ServerConfig cfg = smallServer();
    cfg.exp.jobs = 4;
    cfg.queueLimit = 256;  // admit all 8 x 4 cells at once
    ScopedServer s(cfg);

    const std::vector<std::string> workloads = {"gsm_decode",
                                                "adpcm_decode"};
    const std::vector<std::string> policies = {"baseline",
                                               "offline:d=10"};
    std::vector<std::string> ref =
        referenceLines(cfg.exp, workloads, policies);
    ASSERT_EQ(ref.size(), 4u);

    constexpr std::size_t kClients = 8;
    std::vector<std::vector<std::string>> got(kClients);
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            try {
                srv::Client client =
                    srv::Client::connectTcp(s.server.tcpPort());
                client.hello();
                srv::SweepReply reply = client.sweep(
                    workloads, policies, 0, 0, /*pin=*/true);
                for (const auto &row : reply.rows)
                    got[t].push_back(srv::resultLine(
                        row.workload, row.policy, row.outcome));
            } catch (const std::exception &e) {
                errors[t] = e.what();
            }
        });
    }
    for (auto &th : threads)
        th.join();

    for (std::size_t t = 0; t < kClients; ++t) {
        EXPECT_EQ(errors[t], "") << "client " << t;
        // Byte-identical to the serial jobs=1 in-process reference,
        // in the same workload-major order.
        EXPECT_EQ(got[t], ref) << "client " << t;
    }
    // 8 clients x 4 overlapping cells, but only 4 distinct cells
    // were ever simulated: misses count the memo owners.
    srv::ServerStats st = s.server.stats();
    EXPECT_EQ(st.memoMisses, 4u);
    EXPECT_GE(st.memoHits, 8u * 4u - 4u);
    EXPECT_EQ(st.rowsStreamed, 8u * 4u);
}

TEST(ServerTransport, ClientRejectsMalformedFingerprint)
{
    // A fake server answers HELLO with a fingerprint that is not 16
    // hex digits.  Read leniently it would become 0, and a later
    // pinned SWEEP would send fingerprint 0; the client must refuse.
    srv::Listener l = srv::Listener::tcp(0);
    std::thread fake([&l] {
        srv::Conn conn = l.accept(kIoMs);
        std::string line;
        srv::Request req;
        std::string err;
        if (conn.valid() &&
            conn.readLine(line, kIoMs, 1024) ==
                srv::Conn::ReadStatus::Line &&
            srv::parseRequest(line, req, err))
            conn.writeLine(srv::formatResponse(
                srv::Response::Kind::Ok, req.id,
                {{"proto", std::to_string(srv::PROTO_VERSION)},
                 {"fingerprint", "zz"}}));
    });
    srv::Client client = srv::Client::connectTcp(l.port());
    EXPECT_THROW(client.hello(), srv::NetError);
    fake.join();
}

// ---------------------------------------------------------------- //
// Wire-format units (no server needed)                             //
// ---------------------------------------------------------------- //

TEST(Proto, RequestRoundTrips)
{
    srv::Request req;
    req.verb = srv::Request::Verb::Sweep;
    req.id = "r1";
    req.workloads = {"gsm_decode", "gen:phases=4"};
    req.policies = {"baseline", "offline:d=10"};
    req.window = 9'000;
    req.timeoutMs = 1'500;
    req.hasFingerprint = true;
    req.fingerprint = 0xdeadbeef12345678ULL;
    req.hasTiles = true;
    req.tiles = 4;
    req.coord = "chip-coord:hi=0.5";

    srv::Request back;
    std::string err;
    ASSERT_TRUE(
        srv::parseRequest(srv::formatRequest(req), back, err))
        << err;
    EXPECT_EQ(back.id, "r1");
    EXPECT_EQ(back.workloads, req.workloads);
    EXPECT_EQ(back.policies, req.policies);
    EXPECT_EQ(back.window, 9'000u);
    EXPECT_EQ(back.timeoutMs, 1'500);
    EXPECT_TRUE(back.hasFingerprint);
    EXPECT_EQ(back.fingerprint, 0xdeadbeef12345678ULL);
    EXPECT_TRUE(back.hasTiles);
    EXPECT_EQ(back.tiles, 4u);
    EXPECT_EQ(back.coord, "chip-coord:hi=0.5");
    EXPECT_EQ(srv::formatRequest(back), srv::formatRequest(req));
}

TEST(Proto, TileLabelsSpellTilesThenUncore)
{
    EXPECT_EQ(srv::tileLabel(0, 2), "0");
    EXPECT_EQ(srv::tileLabel(1, 2), "1");
    EXPECT_EQ(srv::tileLabel(2, 2), "u");
}

TEST(Proto, ErrMsgSwallowsRestOfLine)
{
    std::string line = srv::errLine("x9", srv::err::OVERLOAD,
                                    "too much going on", 250);
    EXPECT_EQ(line, "MCD/2 ERR id=x9 code=overload retry_ms=250 "
                    "msg=too much going on");
    srv::Response resp;
    std::string err;
    ASSERT_TRUE(srv::parseResponse(line, resp, err)) << err;
    EXPECT_EQ(resp.kind, srv::Response::Kind::Err);
    EXPECT_EQ(resp.id, "x9");
    EXPECT_EQ(resp.field("code"), "overload");
    EXPECT_EQ(resp.field("retry_ms"), "250");
    EXPECT_EQ(resp.msg, "too much going on");
}

TEST(Proto, OutcomeRoundTripIsByteExact)
{
    control::Outcome o;
    o.timePs = 14195017;
    o.energyNj = 21084.43305999762;
    o.reconfigs = 3;
    o.metrics.slowdownPct = 9.0795453080471837;
    o.metrics.energySavingsPct = 32.063927348855167;
    o.metrics.energyDelayImprovementPct = 25.895640851986624;
    std::string wire = srv::formatOutcome(o);
    srv::Response resp;
    std::string err;
    ASSERT_TRUE(srv::parseResponse("MCD/2 ROW " + wire, resp, err))
        << err;
    control::Outcome back;
    ASSERT_TRUE(srv::parseOutcome(resp.fields, back, err)) << err;
    // Precision-17 %g round-trips doubles exactly, so a second
    // format pass yields identical bytes — the property the
    // local/remote byte-identity gate rests on.
    EXPECT_EQ(srv::formatOutcome(back), wire);
}

TEST(Proto, ErrorCodeListIsComplete)
{
    const auto &codes = srv::errorCodes();
    EXPECT_EQ(codes.size(), 8u);
    for (const char *c :
         {srv::err::BAD_REQUEST, srv::err::BAD_SPEC,
          srv::err::TOO_LARGE, srv::err::OVERLOAD, srv::err::TIMEOUT,
          srv::err::CONFIG_MISMATCH, srv::err::SHUTTING_DOWN,
          srv::err::INTERNAL}) {
        EXPECT_NE(std::find(codes.begin(), codes.end(), c),
                  codes.end())
            << c;
    }
}
