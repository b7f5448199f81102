/**
 * @file
 * Declarative figure definitions. Every table and figure of the paper's
 * evaluation (Tables 1 and 3, Figures 3-22) and the ablation study is a
 * named entry that (1) declares its sweeps — every (workload, config,
 * scale) point it needs — and (2) renders the paper's rows from the
 * collected results. The sweeps run through one Scheduler, so figures
 * share a ResultCache (the baseline is simulated once per process, not
 * once per figure) and parallelize across cores, while the printed
 * rows stay byte-identical to a serial run.
 */

#ifndef NETCRAFTER_EXP_FIGURES_HH
#define NETCRAFTER_EXP_FIGURES_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "src/config/system_config.hh"
#include "src/exp/scheduler.hh"
#include "src/harness/runner.hh"

namespace netcrafter::exp {

/** Everything a figure needs to run: a scheduler (with its cache) and
 *  the stream the paper's rows go to. */
struct FigureContext
{
    Scheduler &scheduler;
    std::ostream &out;
};

/** One reproducible table or figure of the evaluation. */
struct Figure
{
    const char *name;    // short id, e.g. "fig14" or "table3"
    const char *caption; // banner caption
    void (*run)(FigureContext &ctx);
};

/** Every table and figure, in paper order, then the ablation. */
const std::vector<Figure> &figureRegistry();

/** Figure by short id; null when unknown. */
const Figure *findFigure(const std::string &name);

// --- Shared configurations and printing helpers -----------------------

/** Baseline + Stitching with Selective Flit Pooling at the sweet spot. */
config::SystemConfig stitchSelective32();

/** Stitching(+SelPool) + Trimming. */
config::SystemConfig stitchTrim();

/** The full NetCrafter design point (adds Sequencing). */
config::SystemConfig fullNetcrafter();

/** Figure 14's design points: base, stitch, trim, full, sector. */
std::vector<ConfigPoint> fig14Configs();

/** Print the standard figure banner. */
void banner(std::ostream &os, const std::string &fig,
            const std::string &caption);

/** Speedup of @p v over @p base execution cycles. */
double speedup(const harness::RunResult &base,
               const harness::RunResult &v);

} // namespace netcrafter::exp

#endif // NETCRAFTER_EXP_FIGURES_HH
