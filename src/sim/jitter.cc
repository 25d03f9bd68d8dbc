#include "sim/jitter.hh"

#include <algorithm>
#include <cmath>

namespace mcd::sim
{

JitterCode
encodeJitter(double j)
{
    double k = std::floor(j);
    // g = 1 - (j - k), the distance from M + f up to M + 1.  Written
    // (k + 1) - j it is exact (Sterbenz) for every j outside (0, 0.5);
    // there g > 0.5 and any rounding keeps e* >= 52, i.e. "never
    // below 2^52", which is the exact answer.
    double g = (k + 1.0) - j;
    int ex = 0;
    double m = std::frexp(g, &ex);
    // Smallest E with g <= 2^(E - 53): E = 53 + ceil(log2 g).
    int e = 53 + ex - (m == 0.5 ? 1 : 0);
    return {static_cast<std::int8_t>(k),
            static_cast<std::uint8_t>(std::clamp(e, 0, 53))};
}

JitterStream *
JitterStream::of(const Rng &rng, Tick jitter_ps)
{
    if (jitter_ps > MAX_CODED_JITTER_PS)
        return nullptr;
    // Never destroyed: a clock still running on another thread at
    // exit keeps reading its stream.
    static std::mutex *mu = new std::mutex;
    static auto *table = new std::vector<std::unique_ptr<JitterStream>>;
    std::lock_guard<std::mutex> lock(*mu);
    for (const auto &s : *table) {
        if (s->jitterPs == jitter_ps && s->key == rng)
            return s.get();
    }
    table->push_back(
        std::unique_ptr<JitterStream>(new JitterStream(rng, jitter_ps)));
    return table->back().get();
}

const JitterStream::Chunk &
JitterStream::chunk(std::size_t c)
{
    std::lock_guard<std::mutex> lock(mu);
    while (chunks.size() <= c) {
        auto next = std::make_unique<Chunk>();
        next->start = frontier;
        for (JitterCode &code : next->codes)
            code = encodeJitter(drawJitter(frontier, jitterPs));
        chunks.push_back(std::move(next));
    }
    return *chunks[c];
}

} // namespace mcd::sim
