/**
 * @file
 * The per-handler event ledger: every executed event is counted under
 * exactly one kind, the counts repeat exactly from run to run, and they
 * do not depend on how many engine shards executed the run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "src/exp/figures.hh"
#include "src/gpu/system.hh"
#include "src/harness/runner.hh"
#include "src/workloads/workload.hh"

namespace netcrafter {
namespace {

config::SystemConfig
shrink(config::SystemConfig cfg)
{
    cfg.cusPerGpu = 8;
    cfg.maxWavesPerCu = 4;
    return cfg;
}

constexpr double kScale = 0.34;

std::uint64_t
ledgerSum(const harness::RunResult &r)
{
    return std::accumulate(
        r.eventLedger.begin(), r.eventLedger.end(), std::uint64_t{0},
        [](std::uint64_t sum, const auto &entry) {
            return sum + entry.second;
        });
}

TEST(EventLedger, SumsToEventsExecuted)
{
    const harness::RunResult r = harness::runWorkload(
        "GUPS", shrink(exp::fullNetcrafter()), {.scale = kScale});
    ASSERT_GT(r.events, 0u);
    EXPECT_EQ(ledgerSum(r), r.events);
    bool saw_dispatch = false;
    for (const auto &[kind, events] : r.eventLedger) {
        EXPECT_NE(kind, "unattributed") << "an event without a kind";
        EXPECT_GT(events, 0u) << kind;
        saw_dispatch |= kind == "ComputeUnit::dispatchCycle";
    }
    EXPECT_TRUE(saw_dispatch);
}

TEST(EventLedger, RepeatsExactlyAcrossRuns)
{
    const config::SystemConfig cfg = shrink(config::baselineConfig());
    const harness::RunResult a =
        harness::runWorkload("MT", cfg, {.scale = kScale});
    const harness::RunResult b =
        harness::runWorkload("MT", cfg, {.scale = kScale});
    EXPECT_EQ(a.eventLedger, b.eventLedger);
}

TEST(EventLedger, IdenticalAtOneTwoAndFourShards)
{
    // Shards partition whole clusters: four clusters of one GPU each.
    config::SystemConfig cfg = shrink(exp::fullNetcrafter());
    cfg.numClusters = 4;
    cfg.gpusPerCluster = 1;
    const harness::RunResult serial =
        harness::runWorkload("PR", cfg, {.scale = kScale, .shards = 1});
    for (unsigned shards : {2u, 4u}) {
        const harness::RunResult sharded = harness::runWorkload(
            "PR", cfg, {.scale = kScale, .shards = shards});
        EXPECT_EQ(sharded.shards, shards);
        EXPECT_EQ(sharded.eventLedger, serial.eventLedger)
            << shards << " shards";
    }
}

TEST(EventLedger, CollectStatsExportsEveryKind)
{
    config::SystemConfig cfg = shrink(config::baselineConfig());
    gpu::MultiGpuSystem system(cfg);
    auto wl = workloads::makeWorkload("SPMV");
    ASSERT_EQ(system.runFor(*wl, kScale), sim::RunStatus::Drained);
    const stats::Registry reg = system.collectStats();
    std::uint64_t sum = 0;
    for (const auto &[name, counter] : reg.counters()) {
        if (name.rfind("sim.events.", 0) == 0)
            sum += counter.value();
    }
    EXPECT_EQ(sum, system.engine().eventsExecuted());
}

} // namespace
} // namespace netcrafter
