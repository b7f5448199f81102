/**
 * @file
 * Golden tables: every registry entry (Tables 1 and 3, Figures 3-22 and
 * the ablation), run at scale 0.05 through one shared Scheduler and
 * ResultCache, must print exactly the rows committed under
 * tests/golden/figures/. A model change that moves any printed number
 * fails here; a deliberate one regenerates the files and says why in
 * CHANGES.md. From the build directory:
 *
 *   for id in $(./tools/netcrafter-sweep --list | awk 'NR > 1 {print $1}')
 *   do
 *       NETCRAFTER_QUIET=1 ./tools/netcrafter-sweep "$id" --scale 0.05 \
 *           --quiet | head -n -2 > "../tests/golden/figures/$id.txt"
 *   done
 *
 * (`head -n -2` drops the blank line and the sweep summary line.)
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/exp/figures.hh"
#include "src/exp/result_cache.hh"
#include "src/exp/scheduler.hh"

namespace netcrafter::exp {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.is_open()) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(FigureGolden, EveryRegistryEntryMatchesItsGoldenTable)
{
    ASSERT_EQ(figureRegistry().size(), 20u);

    ResultCache cache;
    Scheduler::Options opts;
    opts.scale = 0.05;
    opts.workers = 4;
    Scheduler scheduler(opts, &cache);
    for (const Figure &fig : figureRegistry()) {
        std::ostringstream out;
        FigureContext ctx{scheduler, out};
        fig.run(ctx);
        EXPECT_EQ(out.str(), slurp(std::string(NETCRAFTER_GOLDEN_DIR) +
                                   "/" + fig.name + ".txt"))
            << fig.name;
    }
    // Figures share design points: the baseline alone recurs in most.
    EXPECT_GT(cache.hits(), 0u);
}

} // namespace
} // namespace netcrafter::exp
