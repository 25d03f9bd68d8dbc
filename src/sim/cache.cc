#include "sim/cache.hh"

#include "util/logging.hh"
#include "util/spec.hh"

namespace mcd::sim
{

namespace
{

int
log2u(std::uint32_t v)
{
    int s = 0;
    while ((1U << s) < v)
        ++s;
    return s;
}

} // namespace

Cache::Cache(std::uint32_t size_kb, int ways, std::uint32_t line_size)
    : ways_(ways), lineShift(log2u(line_size))
{
    if (ways < 1 || size_kb == 0 || line_size == 0)
        throw util::SpecError(
            strprintf("bad cache geometry (%u KB, %d ways, %u B lines)",
                      size_kb, ways, line_size));
    std::uint64_t capacity = static_cast<std::uint64_t>(size_kb) * 1024;
    std::uint64_t n_lines = capacity / line_size;
    if (n_lines % static_cast<std::uint64_t>(ways) != 0)
        throw util::SpecError(
            "cache capacity not divisible by associativity");
    sets = static_cast<std::uint32_t>(
        n_lines / static_cast<std::uint64_t>(ways));
    lines.resize(n_lines);
}

bool
Cache::access(std::uint64_t addr)
{
    std::uint64_t line_addr = addr >> lineShift;
    std::uint32_t set = static_cast<std::uint32_t>(line_addr % sets);
    std::uint64_t tag = line_addr / sets;
    Line *base = &lines[static_cast<std::size_t>(set) *
                        static_cast<std::size_t>(ways_)];
    ++useCounter;
    int victim = 0;
    std::uint64_t oldest = ~0ULL;
    for (int w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lastUse = useCounter;
            ++nHits;
            return true;
        }
        std::uint64_t age = base[w].valid ? base[w].lastUse : 0;
        if (age < oldest) {
            oldest = age;
            victim = w;
        }
    }
    ++nMisses;
    base[victim].valid = true;
    base[victim].tag = tag;
    base[victim].lastUse = useCounter;
    return false;
}

bool
Cache::probe(std::uint64_t addr) const
{
    std::uint64_t line_addr = addr >> lineShift;
    std::uint32_t set = static_cast<std::uint32_t>(line_addr % sets);
    std::uint64_t tag = line_addr / sets;
    const Line *base = &lines[static_cast<std::size_t>(set) *
                              static_cast<std::size_t>(ways_)];
    for (int w = 0; w < ways_; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

MainMemory::MainMemory(Tick latency_ps, Tick bus_ps)
    : latencyPs(latency_ps), busPs(bus_ps)
{
}

Tick
MainMemory::access(Tick t)
{
    ++nRequests;
    Tick start = t > busFreeAt ? t : busFreeAt;
    busFreeAt = start + busPs;
    return start + latencyPs;
}

} // namespace mcd::sim
