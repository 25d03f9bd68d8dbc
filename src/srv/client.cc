#include "srv/client.hh"

#include <limits>

#include "util/text.hh"

namespace mcd::srv
{

namespace
{

/** The decimal field @p key of @p resp, at most @p max; a malformed
 *  value is a NetError, never a silent 0. */
std::uint64_t
u64Field(const Response &resp, const char *key,
         std::uint64_t max = ~0ULL)
{
    std::uint64_t v = 0;
    if (!util::parseU64(resp.field(key), max, v))
        throw NetError(std::string("malformed '") + key +
                       "' in reply: '" + resp.field(key) + "'");
    return v;
}

} // namespace

Client
Client::connectUnix(const std::string &path)
{
    return Client(srv::connectUnix(path));
}

Client
Client::connectTcp(std::uint16_t port)
{
    return Client(srv::connectTcp(port));
}

Response
Client::readResponse()
{
    std::string line;
    Conn::ReadStatus st =
        conn_.readLine(line, replyTimeoutMs_, 256 * 1024);
    switch (st) {
    case Conn::ReadStatus::Line:
        break;
    case Conn::ReadStatus::Eof:
        throw NetError("server closed the connection");
    case Conn::ReadStatus::Timeout:
        throw NetError("no reply within " +
                       std::to_string(replyTimeoutMs_) + "ms");
    case Conn::ReadStatus::Overflow:
        throw NetError("reply line too long");
    case Conn::ReadStatus::Error:
        throw NetError("socket error reading reply");
    }
    Response resp;
    std::string perr;
    if (!parseResponse(line, resp, perr))
        throw NetError("unparseable reply: " + perr);
    if (resp.kind == Response::Kind::Err) {
        int retry = resp.field("retry_ms").empty()
                        ? 0
                        : static_cast<int>(u64Field(
                              resp, "retry_ms",
                              std::numeric_limits<int>::max()));
        throw ClientError(resp.field("code"), resp.msg, retry);
    }
    return resp;
}

Response
Client::roundTrip(const Request &req, Response::Kind expect)
{
    if (!conn_.writeLine(formatRequest(req)))
        throw NetError("send failed (server gone?)");
    Response resp = readResponse();
    if (resp.kind != expect)
        throw NetError("unexpected reply kind for request id=" +
                       req.id);
    return resp;
}

void
Client::hello()
{
    Request req;
    req.verb = Request::Verb::Hello;
    req.id = "q" + std::to_string(seq_++);
    Response resp = roundTrip(req, Response::Kind::Ok);
    const std::string &proto = resp.field("proto");
    if (proto != std::to_string(PROTO_VERSION))
        throw NetError("server speaks protocol version '" + proto +
                       "', this client needs " +
                       std::to_string(PROTO_VERSION));
    if (!parseHex16(resp.field("fingerprint"), fingerprint_))
        throw NetError("malformed 'fingerprint' in reply: '" +
                       resp.field("fingerprint") + "'");
}

void
Client::ping()
{
    Request req;
    req.verb = Request::Verb::Ping;
    req.id = "q" + std::to_string(seq_++);
    roundTrip(req, Response::Kind::Ok);
}

std::vector<std::pair<std::string, std::string>>
Client::stats()
{
    Request req;
    req.verb = Request::Verb::Stats;
    req.id = "q" + std::to_string(seq_++);
    return roundTrip(req, Response::Kind::Ok).fields;
}

SweepReply
Client::sweep(const std::vector<std::string> &workloads,
              const std::vector<std::string> &policies,
              std::uint64_t window, int timeout_ms, bool pin,
              long long tiles, const std::string &coord)
{
    Request req;
    req.verb = Request::Verb::Sweep;
    req.id = "q" + std::to_string(seq_++);
    req.workloads = workloads;
    req.policies = policies;
    req.window = window;
    req.timeoutMs = timeout_ms;
    if (pin) {
        req.hasFingerprint = true;
        req.fingerprint = fingerprint_;
    }
    if (tiles >= 0) {
        req.hasTiles = true;
        req.tiles = static_cast<std::uint64_t>(tiles);
    }
    req.coord = coord;
    if (!conn_.writeLine(formatRequest(req)))
        throw NetError("send failed (server gone?)");

    SweepReply reply;
    for (;;) {
        Response resp = readResponse();
        if (resp.kind == Response::Kind::Row) {
            SweepRow row;
            row.workload = resp.field("workload");
            row.policy = resp.field("policy");
            row.tile = resp.field("tile");
            row.memoHit = resp.field("memo") == "hit";
            std::string perr;
            if (!parseOutcome(resp.fields, row.outcome, perr))
                throw NetError("bad ROW payload: " + perr);
            reply.rows.push_back(std::move(row));
            continue;
        }
        if (resp.kind == Response::Kind::Done) {
            reply.hits = u64Field(resp, "hits");
            reply.misses = u64Field(resp, "misses");
            return reply;
        }
        throw NetError("unexpected reply kind mid-sweep");
    }
}

std::string
Client::uploadProgram(const std::string &program_text)
{
    // Split into lines; the PROG header announces the exact count.
    std::vector<std::string> lines;
    std::string cur;
    for (char c : program_text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);

    Request req;
    req.verb = Request::Verb::Prog;
    req.id = "q" + std::to_string(seq_++);
    req.progLines = lines.size();
    std::string payload = formatRequest(req);
    payload += '\n';
    for (const auto &l : lines) {
        payload += l;
        payload += '\n';
    }
    if (!conn_.writeAll(payload))
        throw NetError("send failed (server gone?)");
    Response resp = readResponse();
    if (resp.kind != Response::Kind::Ok)
        throw NetError("unexpected reply kind for PROG");
    return resp.field("handle");
}

void
Client::quit()
{
    Request req;
    req.verb = Request::Verb::Quit;
    req.id = "q" + std::to_string(seq_++);
    roundTrip(req, Response::Kind::Bye);
}

std::string
Client::raw(const std::string &line)
{
    if (!conn_.writeLine(line))
        throw NetError("send failed (server gone?)");
    std::string reply;
    Conn::ReadStatus st =
        conn_.readLine(reply, replyTimeoutMs_, 256 * 1024);
    if (st != Conn::ReadStatus::Line)
        throw NetError("no reply line");
    return reply;
}

} // namespace mcd::srv
