#include "faults.hh"

#include <chrono>
#include <thread>

namespace mcd::srv
{

namespace
{

/** xorshift32 — tiny, deterministic, good enough for byte fuzzing. */
std::uint32_t
nextRand(std::uint32_t &state)
{
    if (state == 0)
        state = 0x9e3779b9u;
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
}

} // namespace

const std::vector<Fault> &
allFaults()
{
    static const std::vector<Fault> faults = {
        Fault::None,          Fault::DropFrame,
        Fault::TruncateFrame, Fault::GarbleFrame,
        Fault::SlowLoris,     Fault::DisconnectMidFrame,
    };
    return faults;
}

const char *
faultName(Fault f)
{
    switch (f) {
    case Fault::None:
        return "none";
    case Fault::DropFrame:
        return "drop-frame";
    case Fault::TruncateFrame:
        return "truncate-frame";
    case Fault::GarbleFrame:
        return "garble-frame";
    case Fault::SlowLoris:
        return "slow-loris";
    case Fault::DisconnectMidFrame:
        return "disconnect-mid-frame";
    }
    return "unknown";
}

std::string
mutateLine(const std::string &line, Fault f, std::uint32_t seed)
{
    std::uint32_t rng = seed;
    switch (f) {
    case Fault::TruncateFrame: {
        if (line.empty())
            return line;
        // A strict prefix: at least one byte shorter.
        std::size_t keep = nextRand(rng) % line.size();
        return line.substr(0, keep);
    }
    case Fault::GarbleFrame: {
        if (line.empty())
            return line;
        std::string out = line;
        // Corrupt 1..4 positions with printable garbage (newlines
        // would split the frame, which is TruncateFrame's job).
        std::size_t flips = 1 + nextRand(rng) % 4;
        for (std::size_t i = 0; i < flips; ++i) {
            std::size_t pos = nextRand(rng) % out.size();
            out[pos] =
                static_cast<char>('!' + nextRand(rng) % ('~' - '!'));
        }
        return out;
    }
    default:
        return line;
    }
}

bool
injectSend(Conn &conn, const std::string &line, Fault f,
           std::uint32_t seed, int dribble_ms)
{
    std::uint32_t rng = seed;
    switch (f) {
    case Fault::None:
        return conn.writeLine(line);
    case Fault::DropFrame:
        return true;
    case Fault::TruncateFrame:
    case Fault::GarbleFrame:
        return conn.writeLine(mutateLine(line, f, seed));
    case Fault::SlowLoris: {
        std::string framed = line + '\n';
        for (char c : framed) {
            if (!conn.writeAll(std::string(1, c)))
                return false;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(dribble_ms));
        }
        return true;
    }
    case Fault::DisconnectMidFrame: {
        std::size_t half =
            line.empty() ? 0 : 1 + nextRand(rng) % line.size();
        bool ok = conn.writeAll(line.substr(0, half));
        conn.close();
        return ok;
    }
    }
    return false;
}

} // namespace mcd::srv
