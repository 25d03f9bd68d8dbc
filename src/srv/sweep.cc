#include "srv/sweep.hh"

#include "chip/multi.hh"
#include "workload/registry.hh"

namespace mcd::srv
{

std::vector<PlannedCell>
planSweep(const Request &req, const exp::ExpConfig &cfg)
{
    control::PolicyContext ctx = exp::policyContext(cfg);
    std::vector<PlannedCell> cells;
    cells.reserve(req.workloads.size() * req.policies.size());
    for (const auto &w : req.workloads) {
        for (const auto &p : req.policies) {
            PlannedCell c;
            c.policy = control::canonicalPolicySpec(p);
            if (!req.hasTiles) {
                c.workload = workload::canonicalWorkloadSpec(w);
            } else {
                exp::ChipCell chip;
                chip.workload = w;
                chip.tiles = static_cast<int>(req.tiles);
                chip.tilePolicy = c.policy;
                chip.coord = req.coord;
                c.workload = chip::multiSpecOf(
                    exp::planChipCell(chip, ctx).tileSpecs);
                c.chip = std::move(chip);
            }
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

std::vector<SweepRow>
runCell(exp::Runner &runner, const PlannedCell &cell)
{
    SweepRow row;
    row.workload = cell.workload;
    row.policy = cell.policy.str();
    if (!cell.chip) {
        row.outcome =
            runner.run(cell.workload, cell.policy, &row.memoHit);
        return {row};
    }
    std::vector<bool> hits;
    std::vector<exp::Outcome> outcomes =
        runner.runChip(*cell.chip, &hits);
    std::vector<SweepRow> rows;
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
        row.tile = tileLabel(k, outcomes.size() - 1);
        row.memoHit = hits[k];
        row.outcome = outcomes[k];
        rows.push_back(row);
    }
    return rows;
}

} // namespace mcd::srv
