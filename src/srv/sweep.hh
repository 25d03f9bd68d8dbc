/**
 * @file
 * The one SWEEP path, shared by `srv::SweepServer` and
 * `mcd_client --local` so the two cannot drift: plan a request's
 * cells (validate and label them), run one cell into its rows, and
 * print the rows with `rowLine()` (srv/proto.hh).
 *
 * Single-core and chip sweeps take the same path.  A single-core
 * cell yields one row; a chip cell (`tiles=` present) simulates one
 * `chip::Chip` and yields tiles+1 rows labelled `0..N-1` and `u`.
 */

#ifndef MCD_SRV_SWEEP_HH
#define MCD_SRV_SWEEP_HH

#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "srv/proto.hh"

namespace mcd::srv
{

/** One validated, labelled cell of a sweep. */
struct PlannedCell
{
    /** Row label: the canonical workload spec, or a chip cell's
     *  canonical `multi:` co-schedule. */
    std::string workload;
    /** The canonical policy spec; its str() is the row label. */
    control::PolicySpec policy;
    /** Chip sweeps only: the cell Runner::runChip() simulates. */
    std::optional<exp::ChipCell> chip;
};

/**
 * Validate and label every cell of @p req's {workloads x policies}
 * cross product, workload-major (every policy of the first workload,
 * then the next) — the order rows stream in.  Each cell checks its
 * policy spec, then its workload: a single-core workload
 * canonicalizes through the registry, a chip co-schedule
 * (`req.hasTiles`) runs exp::planChipCell() against @p cfg.  Nothing
 * is admitted or run, so a rejected request costs nothing.  Throws
 * workload::SpecError at the first bad spec.
 */
std::vector<PlannedCell> planSweep(const Request &req,
                                   const exp::ExpConfig &cfg);

/**
 * Run @p cell on @p runner into its rows, each with its memo-hit
 * flag.  Throws what the runner throws.
 */
std::vector<SweepRow> runCell(exp::Runner &runner,
                              const PlannedCell &cell);

} // namespace mcd::srv

#endif // MCD_SRV_SWEEP_HH
