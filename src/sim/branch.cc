#include "sim/branch.hh"

namespace mcd::sim
{

BranchPredictor::BranchPredictor(const Config &c)
    : cfg(c),
      bimodal(c.bimodalSize, 1),
      history(c.l1Size, 0),
      pht(c.l2Size, 1),
      meta(c.metaSize, 2),
      btb(static_cast<std::size_t>(c.btbSets) *
          static_cast<std::size_t>(c.btbWays))
{
}

std::uint8_t
BranchPredictor::bump(std::uint8_t c, bool up)
{
    if (up)
        return c < 3 ? c + 1 : 3;
    return c > 0 ? c - 1 : 0;
}

BranchPrediction
BranchPredictor::predict(std::uint64_t pc) const
{
    ++nLookups;
    std::uint64_t idx = pc >> 2;
    std::uint8_t bi = bimodal[idx % cfg.bimodalSize];
    std::uint16_t hist = history[idx % cfg.l1Size];
    std::uint8_t pa = pht[hist % cfg.l2Size];
    std::uint8_t mt = meta[idx % cfg.metaSize];

    BranchPrediction p;
    p.taken = counterTaken(mt) ? counterTaken(pa) : counterTaken(bi);

    std::uint32_t set = static_cast<std::uint32_t>(idx % cfg.btbSets);
    const BtbEntry *base =
        &btb[static_cast<std::size_t>(set) *
             static_cast<std::size_t>(cfg.btbWays)];
    for (int w = 0; w < cfg.btbWays; ++w) {
        if (base[w].valid && base[w].tag == idx) {
            p.btbHit = true;
            p.target = base[w].target;
            break;
        }
    }
    return p;
}

void
BranchPredictor::update(std::uint64_t pc, bool taken,
                        std::uint64_t target)
{
    std::uint64_t idx = pc >> 2;
    std::uint8_t &bi = bimodal[idx % cfg.bimodalSize];
    std::uint16_t &hist = history[idx % cfg.l1Size];
    std::uint8_t &pa = pht[hist % cfg.l2Size];
    std::uint8_t &mt = meta[idx % cfg.metaSize];

    bool bi_correct = counterTaken(bi) == taken;
    bool pa_correct = counterTaken(pa) == taken;
    if (bi_correct != pa_correct)
        mt = bump(mt, pa_correct);

    bi = bump(bi, taken);
    pa = bump(pa, taken);
    hist = static_cast<std::uint16_t>(
        ((static_cast<unsigned>(hist) << 1) | (taken ? 1U : 0U)) &
        ((1U << cfg.historyBits) - 1));

    if (taken) {
        std::uint32_t set =
            static_cast<std::uint32_t>(idx % cfg.btbSets);
        BtbEntry *base =
            &btb[static_cast<std::size_t>(set) *
                 static_cast<std::size_t>(cfg.btbWays)];
        ++useCounter;
        int victim = 0;
        std::uint64_t oldest = ~0ULL;
        for (int w = 0; w < cfg.btbWays; ++w) {
            if (base[w].valid && base[w].tag == idx) {
                base[w].target = target;
                base[w].lastUse = useCounter;
                return;
            }
            std::uint64_t age = base[w].valid ? base[w].lastUse : 0;
            if (age < oldest) {
                oldest = age;
                victim = w;
            }
        }
        base[victim] = BtbEntry{idx, target, useCounter, true};
    }
}

} // namespace mcd::sim
