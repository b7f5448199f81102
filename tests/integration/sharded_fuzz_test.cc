/**
 * @file
 * Randomized serial-vs-sharded differential testing: each seed draws a
 * random (application, configuration, topology, scale, config seed)
 * point and runs it serially and at every shard x executor-thread
 * combination the topology admits. Every sharded run must reproduce
 * the serial measurement bit for bit and conserve every inter-cluster
 * flit and byte. Covers points no hand-picked determinism test names.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "src/harness/runner.hh"
#include "src/sim/random.hh"
#include "src/workloads/workload.hh"

namespace netcrafter {
namespace {

/** One randomly drawn simulation point. */
struct Draw
{
    std::string app;
    std::string configName;
    config::SystemConfig cfg;
    double scale = 0;
};

std::ostream &
operator<<(std::ostream &os, const Draw &d)
{
    return os << d.app << " / " << d.configName << " / "
              << d.cfg.numClusters << "x" << d.cfg.gpusPerCluster
              << " GPUs / scale " << d.scale << " / seed " << d.cfg.seed;
}

Draw
drawPoint(std::uint64_t seed)
{
    Pcg32 rng(seed);
    const std::vector<std::string> apps = workloads::workloadNames();

    Draw d;
    d.app = apps[rng.below(static_cast<std::uint32_t>(apps.size()))];
    switch (rng.below(3)) {
      case 0:
        d.configName = "baseline";
        d.cfg = config::baselineConfig();
        break;
      case 1:
        d.configName = "netcrafter";
        d.cfg = config::netcrafterConfig();
        break;
      default:
        d.configName = "sector";
        d.cfg = config::sectorCacheConfig();
        break;
    }
    d.cfg.numClusters = rng.chance(0.5) ? 2 : 4;
    d.cfg.gpusPerCluster = rng.chance(0.5) ? 1 : 2;
    // Shrunk GPUs and a tiny problem keep one draw to a few seconds.
    d.cfg.cusPerGpu = 8;
    d.cfg.maxWavesPerCu = 4;
    d.scale = 0.1 * (1 + rng.below(3));
    d.cfg.seed = 1 + rng.below(1000);
    return d;
}

class ShardedFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ShardedFuzz, EveryShardAndThreadCountMatchesSerial)
{
    const Draw d = drawPoint(GetParam());
    const harness::RunResult serial = harness::runWorkload(
        d.app, d.cfg,
        {.scale = d.scale, .shards = 1, .exec = sim::ExecPolicy{}});
    EXPECT_EQ(serial.wireFlitsDelivered, serial.interFlits) << d;

    for (const unsigned shards : {2u, 4u}) {
        if (shards > d.cfg.numClusters)
            continue;
        std::vector<unsigned> thread_counts = {1, 2};
        if (shards > 2)
            thread_counts.push_back(shards);
        for (const unsigned threads : thread_counts) {
            const harness::RunResult run =
                harness::runWorkload(d.app, d.cfg,
                                     {.scale = d.scale, .shards = shards,
                                      .exec = sim::ExecPolicy{threads}});
            EXPECT_TRUE(sameMeasurement(serial, run))
                << d << ": diverged at " << shards << " shards, "
                << threads << " threads: serial " << serial.cycles
                << " cycles / " << serial.events << " events, got "
                << run.cycles << " cycles / " << run.events << " events";
            EXPECT_EQ(serial.events, run.events) << d;
            EXPECT_EQ(run.shards, shards) << d;
            EXPECT_EQ(run.workThreads, threads) << d;
            EXPECT_EQ(run.wireFlitsDelivered, run.interFlits) << d;
            EXPECT_EQ(run.wireBytesDelivered, run.interWireBytes) << d;
            EXPECT_LE(run.coveredStallTicks, run.barrierStallTicks) << d;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Draws, ShardedFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

} // namespace
} // namespace netcrafter
