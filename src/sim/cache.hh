/**
 * @file
 * Set-associative cache models (L1I, L1D, unified L2) with LRU
 * replacement, plus the fixed-latency external main memory.
 *
 * Caches are trace-driven: an access updates state and reports
 * hit/miss immediately; the caller converts the result into timing
 * using the owning domain's clock.
 */

#ifndef MCD_SIM_CACHE_HH
#define MCD_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace mcd::sim
{

/** Result of a cache hierarchy access. */
struct MemAccessResult
{
    bool l1Hit = false;
    bool l2Hit = false;   ///< meaningful only when !l1Hit
};

/**
 * One level of set-associative cache with LRU replacement.
 */
class Cache
{
  public:
    /**
     * @param size_kb   capacity in KB
     * @param ways      associativity (1 = direct mapped)
     * @param line_size line size in bytes (power of two)
     */
    Cache(std::uint32_t size_kb, int ways, std::uint32_t line_size);

    /**
     * Access the line containing @p addr; allocate on miss.
     *
     * @return true on hit.
     */
    bool access(std::uint64_t addr);

    /** Probe without updating state. */
    bool probe(std::uint64_t addr) const;

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    std::uint32_t numSets() const { return sets; }

  private:
    struct Line
    {
        std::uint64_t tag = ~0ULL;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::uint32_t sets;
    int ways_;
    int lineShift;
    std::vector<Line> lines;  ///< sets * ways, row-major by set
    std::uint64_t useCounter = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

/**
 * Main memory in the always-full-speed external domain: fixed access
 * latency plus a simple bus-occupancy queue.
 */
class MainMemory
{
  public:
    /**
     * @param latency_ps access latency
     * @param bus_ps     per-request channel occupancy
     */
    MainMemory(Tick latency_ps, Tick bus_ps);

    /**
     * Issue a request at time @p t; returns data-return time.
     */
    Tick access(Tick t);

    std::uint64_t requests() const { return nRequests; }

  private:
    Tick latencyPs;
    Tick busPs;
    Tick busFreeAt = 0;
    std::uint64_t nRequests = 0;
};

} // namespace mcd::sim

#endif // MCD_SIM_CACHE_HH
