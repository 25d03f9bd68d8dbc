/**
 * @file
 * Branch prediction: combination of a bimodal predictor and a 2-level
 * PAg predictor with a meta chooser, plus a set-associative BTB
 * (Table 1 of the paper).
 */

#ifndef MCD_SIM_BRANCH_HH
#define MCD_SIM_BRANCH_HH

#include <cstdint>
#include <vector>

namespace mcd::sim
{

/** Prediction outcome. */
struct BranchPrediction
{
    bool taken = false;
    bool btbHit = false;
    std::uint64_t target = 0;
};

/**
 * Combined (bimodal + PAg) direction predictor with BTB.
 */
class BranchPredictor
{
  public:
    struct Config
    {
        std::uint32_t bimodalSize = 1024;
        std::uint32_t l1Size = 1024;   ///< per-branch history table
        int historyBits = 10;
        std::uint32_t l2Size = 1024;   ///< pattern history table
        std::uint32_t metaSize = 4096;
        std::uint32_t btbSets = 4096;
        int btbWays = 2;
    };

    BranchPredictor() : BranchPredictor(Config{}) {}
    explicit BranchPredictor(const Config &cfg);

    /** Predict direction/target for the branch at @p pc. */
    BranchPrediction predict(std::uint64_t pc) const;

    /**
     * Train with the actual outcome.
     *
     * @param pc     branch pc
     * @param taken  actual direction
     * @param target actual target (installed in BTB when taken)
     */
    void update(std::uint64_t pc, bool taken, std::uint64_t target);

    std::uint64_t lookups() const { return nLookups; }

  private:
    struct BtbEntry
    {
        std::uint64_t tag = ~0ULL;
        std::uint64_t target = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    static bool counterTaken(std::uint8_t c) { return c >= 2; }
    static std::uint8_t bump(std::uint8_t c, bool up);

    Config cfg;
    std::vector<std::uint8_t> bimodal;   ///< 2-bit counters
    std::vector<std::uint16_t> history;  ///< per-branch histories
    std::vector<std::uint8_t> pht;       ///< PAg level 2
    std::vector<std::uint8_t> meta;      ///< chooser (>=2 -> PAg)
    std::vector<BtbEntry> btb;
    std::uint64_t useCounter = 0;
    mutable std::uint64_t nLookups = 0;
};

} // namespace mcd::sim

#endif // MCD_SIM_BRANCH_HH
