#include "srv/proto.hh"

#include <cerrno>
#include <cstdlib>

#include "util/text.hh"

namespace mcd::srv
{

const char *const PROTO_TAG = "MCD/2";

const std::vector<std::string> &
errorCodes()
{
    static const std::vector<std::string> codes = {
        err::BAD_REQUEST,     err::BAD_SPEC, err::TOO_LARGE,
        err::OVERLOAD,        err::TIMEOUT,  err::CONFIG_MISMATCH,
        err::SHUTTING_DOWN,   err::INTERNAL,
    };
    return codes;
}

namespace
{

/** Strict full-string decimal parse into [0, max]. */
bool
parseU64(const std::string &text, std::uint64_t max,
         std::uint64_t &out)
{
    if (text.empty() || text[0] < '0' || text[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || v > max)
        return false;
    out = v;
    return true;
}

/** Strict 16-hex-digit fingerprint parse. */
bool
parseHex16(const std::string &text, std::uint64_t &out)
{
    if (text.size() != 16)
        return false;
    std::uint64_t v = 0;
    for (char c : text) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else
            return false;
        v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    out = v;
    return true;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)v);
    return buf;
}

/**
 * Split @p line into space-separated tokens, tracking each token's
 * byte offset so a trailing `msg=` token can recover the raw rest of
 * the line.  Rejects empty tokens (leading/double/trailing spaces)
 * — sloppy framing is how drift sneaks in.
 */
bool
tokenize(const std::string &line,
         std::vector<std::pair<std::string, std::size_t>> &tokens,
         std::string &err_text)
{
    tokens.clear();
    std::size_t pos = 0;
    while (pos <= line.size()) {
        std::size_t sp = line.find(' ', pos);
        std::size_t end = sp == std::string::npos ? line.size() : sp;
        if (end == pos) {
            err_text = "empty token (stray space) at byte " +
                       std::to_string(pos);
            return false;
        }
        tokens.emplace_back(line.substr(pos, end - pos), pos);
        if (sp == std::string::npos)
            break;
        pos = sp + 1;
    }
    if (tokens.empty()) {
        err_text = "empty line";
        return false;
    }
    return true;
}

/** Check the MCD/<n> tag on token 0. */
bool
checkTag(const std::string &tag, std::string &err_text)
{
    if (tag == PROTO_TAG)
        return true;
    if (tag.rfind("MCD/", 0) == 0) {
        err_text = "unsupported protocol version '" + tag +
                   "' (this server speaks " + PROTO_TAG + ")";
        return false;
    }
    err_text = "bad protocol tag '" + tag + "' (expected " +
               PROTO_TAG + ")";
    return false;
}

/** Split `key=value`; false if there is no '=' or the value is
 *  empty. */
bool
splitKv(const std::string &token, std::string &key,
        std::string &value)
{
    std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 ||
        eq + 1 == token.size())
        return false;
    key = token.substr(0, eq);
    value = token.substr(eq + 1);
    return true;
}

} // namespace

bool
parseRequest(const std::string &line, Request &req,
             std::string &err_text)
{
    std::vector<std::pair<std::string, std::size_t>> tokens;
    if (!tokenize(line, tokens, err_text))
        return false;
    if (!checkTag(tokens[0].first, err_text))
        return false;
    if (tokens.size() < 2) {
        err_text = "missing verb";
        return false;
    }
    const std::string &verb = tokens[1].first;
    Request r;
    if (verb == "HELLO")
        r.verb = Request::Verb::Hello;
    else if (verb == "PING")
        r.verb = Request::Verb::Ping;
    else if (verb == "STATS")
        r.verb = Request::Verb::Stats;
    else if (verb == "SWEEP")
        r.verb = Request::Verb::Sweep;
    else if (verb == "PROG")
        r.verb = Request::Verb::Prog;
    else if (verb == "QUIT")
        r.verb = Request::Verb::Quit;
    else {
        err_text = "unknown verb '" + verb + "'";
        return false;
    }

    bool sawWindow = false, sawTimeout = false, sawLines = false;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key, value;
        if (!splitKv(tokens[i].first, key, value)) {
            err_text =
                "malformed token '" + tokens[i].first + "'";
            return false;
        }
        if (key == "id") {
            if (!r.id.empty()) {
                err_text = "duplicate id";
                return false;
            }
            if (!util::validSpecValue(value)) {
                err_text = "bad id '" + value + "'";
                return false;
            }
            r.id = value;
        } else if (key == "workload" &&
                   r.verb == Request::Verb::Sweep) {
            r.workloads.push_back(value);
        } else if (key == "policy" &&
                   r.verb == Request::Verb::Sweep) {
            r.policies.push_back(value);
        } else if (key == "window" &&
                   r.verb == Request::Verb::Sweep) {
            if (sawWindow ||
                !parseU64(value, ~0ULL, r.window) ||
                r.window == 0) {
                err_text = "bad window '" + value + "'";
                return false;
            }
            sawWindow = true;
        } else if (key == "timeout_ms" &&
                   r.verb == Request::Verb::Sweep) {
            std::uint64_t v = 0;
            if (sawTimeout || !parseU64(value, 86'400'000, v) ||
                v == 0) {
                err_text = "bad timeout_ms '" + value + "'";
                return false;
            }
            r.timeoutMs = static_cast<int>(v);
            sawTimeout = true;
        } else if (key == "fingerprint" &&
                   r.verb == Request::Verb::Sweep) {
            if (r.hasFingerprint ||
                !parseHex16(value, r.fingerprint)) {
                err_text = "bad fingerprint '" + value +
                           "' (want 16 lower-case hex digits)";
                return false;
            }
            r.hasFingerprint = true;
        } else if (key == "tiles" &&
                   r.verb == Request::Verb::Sweep) {
            if (r.hasTiles || !parseU64(value, 4096, r.tiles)) {
                err_text = "bad tiles '" + value + "'";
                return false;
            }
            r.hasTiles = true;
        } else if (key == "coord" &&
                   r.verb == Request::Verb::Sweep) {
            if (!r.coord.empty()) {
                err_text = "duplicate coord";
                return false;
            }
            r.coord = value;
        } else if (key == "lines" &&
                   r.verb == Request::Verb::Prog) {
            std::uint64_t v = 0;
            if (sawLines || !parseU64(value, 1'000'000, v) ||
                v == 0) {
                err_text = "bad lines '" + value + "'";
                return false;
            }
            r.progLines = static_cast<std::size_t>(v);
            sawLines = true;
        } else {
            err_text = "unknown key '" + key + "' for verb " + verb;
            return false;
        }
    }
    if (r.verb == Request::Verb::Sweep) {
        if (r.workloads.empty() || r.policies.empty()) {
            err_text = "SWEEP needs at least one workload= and one "
                       "policy=";
            return false;
        }
        if (!r.coord.empty() && !r.hasTiles) {
            err_text = "coord= needs tiles= (chip sweeps only)";
            return false;
        }
    }
    if (r.verb == Request::Verb::Prog && !sawLines) {
        err_text = "PROG needs lines=N";
        return false;
    }
    req = std::move(r);
    return true;
}

std::string
formatRequest(const Request &req)
{
    std::string out = PROTO_TAG;
    out += ' ';
    switch (req.verb) {
    case Request::Verb::Hello: out += "HELLO"; break;
    case Request::Verb::Ping: out += "PING"; break;
    case Request::Verb::Stats: out += "STATS"; break;
    case Request::Verb::Sweep: out += "SWEEP"; break;
    case Request::Verb::Prog: out += "PROG"; break;
    case Request::Verb::Quit: out += "QUIT"; break;
    }
    if (!req.id.empty())
        out += " id=" + req.id;
    if (req.verb == Request::Verb::Sweep) {
        for (const std::string &w : req.workloads)
            out += " workload=" + w;
        for (const std::string &p : req.policies)
            out += " policy=" + p;
        if (req.window)
            out += " window=" + std::to_string(req.window);
        if (req.timeoutMs)
            out += " timeout_ms=" + std::to_string(req.timeoutMs);
        if (req.hasFingerprint)
            out += " fingerprint=" + hex16(req.fingerprint);
        if (req.hasTiles)
            out += " tiles=" + std::to_string(req.tiles);
        if (!req.coord.empty())
            out += " coord=" + req.coord;
    }
    if (req.verb == Request::Verb::Prog)
        out += " lines=" + std::to_string(req.progLines);
    return out;
}

const std::string &
Response::field(const std::string &key) const
{
    static const std::string empty;
    for (const auto &kv : fields)
        if (kv.first == key)
            return kv.second;
    return empty;
}

bool
parseResponse(const std::string &line, Response &resp,
              std::string &err_text)
{
    std::vector<std::pair<std::string, std::size_t>> tokens;
    if (!tokenize(line, tokens, err_text))
        return false;
    if (!checkTag(tokens[0].first, err_text))
        return false;
    if (tokens.size() < 2) {
        err_text = "missing response kind";
        return false;
    }
    const std::string &kind = tokens[1].first;
    Response r;
    if (kind == "OK")
        r.kind = Response::Kind::Ok;
    else if (kind == "ROW")
        r.kind = Response::Kind::Row;
    else if (kind == "DONE")
        r.kind = Response::Kind::Done;
    else if (kind == "ERR")
        r.kind = Response::Kind::Err;
    else if (kind == "BYE")
        r.kind = Response::Kind::Bye;
    else {
        err_text = "unknown response kind '" + kind + "'";
        return false;
    }
    for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i].first.rfind("msg=", 0) == 0) {
            // msg= swallows the raw rest of the line, spaces and
            // all; it must be the last structured token.
            r.msg = line.substr(tokens[i].second + 4);
            break;
        }
        std::string key, value;
        if (!splitKv(tokens[i].first, key, value)) {
            err_text =
                "malformed token '" + tokens[i].first + "'";
            return false;
        }
        if (key == "id") {
            if (!r.id.empty()) {
                err_text = "duplicate id";
                return false;
            }
            r.id = value;
        } else {
            r.fields.emplace_back(key, value);
        }
    }
    resp = std::move(r);
    return true;
}

std::string
formatResponse(Response::Kind kind, const std::string &id,
               const std::vector<std::pair<std::string, std::string>>
                   &fields,
               const std::string &msg)
{
    std::string out = PROTO_TAG;
    out += ' ';
    switch (kind) {
    case Response::Kind::Ok: out += "OK"; break;
    case Response::Kind::Row: out += "ROW"; break;
    case Response::Kind::Done: out += "DONE"; break;
    case Response::Kind::Err: out += "ERR"; break;
    case Response::Kind::Bye: out += "BYE"; break;
    }
    if (!id.empty())
        out += " id=" + id;
    for (const auto &kv : fields)
        out += ' ' + kv.first + '=' + kv.second;
    if (!msg.empty())
        out += " msg=" + msg;
    return out;
}

std::string
errLine(const std::string &id, const char *code,
        const std::string &msg, int retry_ms)
{
    std::vector<std::pair<std::string, std::string>> fields;
    fields.emplace_back("code", code);
    if (retry_ms > 0)
        fields.emplace_back("retry_ms", std::to_string(retry_ms));
    return formatResponse(Response::Kind::Err, id, fields, msg);
}

namespace
{

/** ROW payload field names, in wire order: the Outcome raw fields in
 *  cache-line order, then the paper's three metrics. */
constexpr std::size_t NUM_OUTCOME_FIELDS = 14;

const char *const OUTCOME_FIELDS[NUM_OUTCOME_FIELDS] = {
    "time_ps",
    "energy_nj",
    "reconfigs",
    "overhead_cycles",
    "fe_cycles",
    "dyn_reconfig_points",
    "dyn_instr_points",
    "static_reconfig_points",
    "static_instr_points",
    "table_bytes",
    "global_freq",
    "slowdown_pct",
    "savings_pct",
    "ed_gain_pct",
};

void
outcomePtrs(control::Outcome &o,
            double *(&vals)[NUM_OUTCOME_FIELDS])
{
    double *v[NUM_OUTCOME_FIELDS] = {
        &o.timePs,
        &o.energyNj,
        &o.reconfigs,
        &o.overheadCycles,
        &o.feCycles,
        &o.dynReconfigPoints,
        &o.dynInstrPoints,
        &o.staticReconfigPoints,
        &o.staticInstrPoints,
        &o.tableBytes,
        &o.globalFreq,
        &o.metrics.slowdownPct,
        &o.metrics.energySavingsPct,
        &o.metrics.energyDelayImprovementPct,
    };
    for (std::size_t i = 0; i < NUM_OUTCOME_FIELDS; ++i)
        vals[i] = v[i];
}

} // namespace

std::string
formatOutcome(const control::Outcome &o)
{
    control::Outcome copy = o;
    double *vals[NUM_OUTCOME_FIELDS];
    outcomePtrs(copy, vals);
    // util::fmtDouble17 is the sanctioned double formatter for the
    // wire: C-locale, 17 significant digits, byte-exact round-trips.
    std::string out;
    for (std::size_t i = 0; i < NUM_OUTCOME_FIELDS; ++i) {
        if (i)
            out += ' ';
        out += OUTCOME_FIELDS[i];
        out += '=';
        out += util::fmtDouble17(*vals[i]);
    }
    return out;
}

bool
parseOutcome(
    const std::vector<std::pair<std::string, std::string>> &fields,
    control::Outcome &o, std::string &err_text)
{
    control::Outcome out;
    double *vals[NUM_OUTCOME_FIELDS];
    outcomePtrs(out, vals);
    for (std::size_t i = 0; i < NUM_OUTCOME_FIELDS; ++i) {
        const std::string *text = nullptr;
        for (const auto &kv : fields)
            if (kv.first == OUTCOME_FIELDS[i]) {
                text = &kv.second;
                break;
            }
        if (!text || !util::parseDouble(*text, *vals[i])) {
            err_text = std::string("missing or malformed ROW "
                                   "field '") +
                       OUTCOME_FIELDS[i] + "'";
            return false;
        }
    }
    o = out;
    return true;
}

std::string
resultLine(const std::string &workload, const std::string &policy,
           const control::Outcome &o)
{
    return "workload=" + workload + " policy=" + policy + ' ' +
           formatOutcome(o);
}

std::string
rowLine(const SweepRow &row)
{
    std::string line;
    if (!row.tile.empty())
        line = "tile=" + row.tile + ' ';
    return line + resultLine(row.workload, row.policy, row.outcome);
}

std::string
tileLabel(std::size_t k, std::size_t tiles)
{
    return k < tiles ? std::to_string(k) : std::string("u");
}

} // namespace mcd::srv
