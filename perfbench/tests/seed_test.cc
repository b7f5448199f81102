/**
 * @file
 * Seed plumbing self-test: the benchmark's seed must reach the simulator
 * (a second seed changes simulated cycles on at least one point) and
 * nothing else may (the same seed reproduces every simulated count).
 * Runs a few grid-serial points at a small scale; exits non-zero on
 * failure.
 */

#include <iostream>
#include <set>

#include "bench.hh"

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    failures += ok ? 0 : 1;
}

/** The first @p n base and full points of grid-serial at @p seed. */
perfbench::WorkloadDef
smallGrid(std::uint64_t seed, std::size_t n)
{
    perfbench::WorkloadDef w;
    perfbench::makeWorkloadDef("grid-serial", seed, w);
    const std::size_t half = w.points.size() / 2;
    std::vector<perfbench::Point> points;
    for (std::size_t i = 0; i < n; ++i) {
        points.push_back(w.points[i]);
        points.push_back(w.points[half + i]);
    }
    w.points = points;
    w.scale = 0.05;
    return w;
}

std::vector<perfbench::PointResult>
runAll(const perfbench::WorkloadDef &w)
{
    std::vector<perfbench::PointResult> out;
    for (std::size_t i = 0; i < w.points.size(); ++i)
        out.push_back(perfbench::runGridPoint(w, w.points[i], nullptr, -1,
                                              static_cast<int>(i)));
    return out;
}

} // namespace

int
main()
{
    const auto first = runAll(smallGrid(1, 3));
    const auto again = runAll(smallGrid(1, 3));
    const auto other = runAll(smallGrid(2, 3));

    bool same = true, cycles_moved = false, all_ok = true;
    for (std::size_t i = 0; i < first.size(); ++i) {
        all_ok = all_ok && first[i].ok && again[i].ok && other[i].ok;
        same = same && first[i].counts == again[i].counts;
        cycles_moved = cycles_moved || first[i].counts.at("cycles") !=
                                           other[i].counts.at("cycles");
    }
    expect(all_ok, "every point drains and conserves flits and bytes");
    expect(same, "seed 1 twice: every simulated count repeats");
    expect(cycles_moved, "seed 2: simulated cycles change on some point");

    for (std::uint64_t seed : {1, 2}) {
        perfbench::WorkloadDef sweep;
        perfbench::makeWorkloadDef("eval-sweep", seed, sweep);
        bool seeded = true;
        std::set<std::string> unique;
        for (const auto &spec : sweep.specs) {
            for (const auto &job : spec.jobs()) {
                seeded = seeded && job.config.seed == seed;
                unique.insert(job.workload + "@" +
                              std::to_string(job.config.digest()));
            }
        }
        expect(seeded && sweep.points.size() == 240 &&
                   unique.size() + sweep.expectedCacheHits == 240,
               "eval-sweep at seed " + std::to_string(seed) +
                   ": 240 seeded jobs, of which " +
                   std::to_string(sweep.expectedCacheHits) +
                   " repeat a design point");
    }
    return failures == 0 ? 0 : 1;
}
