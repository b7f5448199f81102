/**
 * @file
 * Serial-vs-sharded determinism: the same (workload, config) run on 1,
 * 2, and 4 engine shards must produce bit-identical measurements —
 * figure outputs and the event census alike. These points mirror the
 * fig03 (baseline vs ideal) and fig14 (cumulative NetCrafter
 * mechanisms) grids at test scale.
 */

#include <gtest/gtest.h>

#include "src/harness/runner.hh"

namespace netcrafter {
namespace {

config::SystemConfig
shrink(config::SystemConfig cfg)
{
    cfg.cusPerGpu = 8;
    cfg.maxWavesPerCu = 4;
    return cfg;
}

constexpr double kTinyScale = 0.34;

void
expectShardInvariant(const std::string &app,
                     const config::SystemConfig &cfg, unsigned shards)
{
    const harness::RunResult serial =
        harness::runWorkload(app, cfg, {.scale = kTinyScale, .shards = 1});
    const harness::RunResult parallel =
        harness::runWorkload(app, cfg,
                             {.scale = kTinyScale, .shards = shards});

    EXPECT_TRUE(sameMeasurement(serial, parallel))
        << app << " diverged at " << shards << " shards: serial "
        << serial.cycles << " cycles / " << serial.events
        << " events, sharded " << parallel.cycles << " cycles / "
        << parallel.events << " events";
    // The event census must match exactly, not just the figures.
    EXPECT_EQ(serial.events, parallel.events) << app;
    EXPECT_EQ(serial.interFlits, parallel.interFlits) << app;

    EXPECT_EQ(serial.shards, 1u);
    EXPECT_EQ(serial.crossShardFlits, 0u);
    if (shards > 1) {
        EXPECT_EQ(parallel.shards, shards) << app;
        EXPECT_GT(parallel.quantaExecuted, 0u) << app;
        if (parallel.interFlits > 0)
            EXPECT_GT(parallel.crossShardFlits, 0u) << app;
    }
}

TEST(ShardedDeterminismTest, Fig03PointBaselineTwoShards)
{
    expectShardInvariant("GUPS", shrink(config::baselineConfig()), 2);
}

TEST(ShardedDeterminismTest, Fig03PointIdealTwoShards)
{
    expectShardInvariant("GUPS", shrink(config::idealConfig()), 2);
}

TEST(ShardedDeterminismTest, Fig14PointFullNetcrafterTwoShards)
{
    // Full NetCrafter exercises stitched flits (with pooled piece
    // packets) crossing the shard boundary.
    expectShardInvariant("MT", shrink(config::netcrafterConfig()), 2);
}

TEST(ShardedDeterminismTest, Fig14PointSectorCacheTwoShards)
{
    expectShardInvariant("GUPS", shrink(config::sectorCacheConfig(16)),
                         2);
}

TEST(ShardedDeterminismTest, FourClustersFourShards)
{
    config::SystemConfig cfg = shrink(config::baselineConfig());
    cfg.numClusters = 4;
    cfg.gpusPerCluster = 1;
    expectShardInvariant("GUPS", cfg, 4);

    config::SystemConfig nc = shrink(config::netcrafterConfig());
    nc.numClusters = 4;
    nc.gpusPerCluster = 1;
    expectShardInvariant("MT", nc, 4);
}

TEST(ShardedDeterminismTest, StallCensusIsThreadCountInvariant)
{
    // barrierStallTicks is sim-tick arithmetic over the round protocol
    // and must not move with the executor mapping; only the covered /
    // residual split (a function of the thread count) may differ.
    config::SystemConfig cfg = shrink(config::baselineConfig());
    cfg.numClusters = 4;
    cfg.gpusPerCluster = 1;

    const harness::RunResult four = harness::runWorkload(
        "GUPS", cfg,
        {.scale = kTinyScale, .shards = 4, .exec = sim::ExecPolicy{0}});
    const harness::RunResult mux = harness::runWorkload(
        "GUPS", cfg,
        {.scale = kTinyScale, .shards = 4, .exec = sim::ExecPolicy{1}});
    const harness::RunResult two = harness::runWorkload(
        "GUPS", cfg,
        {.scale = kTinyScale, .shards = 4, .exec = sim::ExecPolicy{2}});

    EXPECT_TRUE(sameMeasurement(four, mux));
    EXPECT_TRUE(sameMeasurement(four, two));
    EXPECT_EQ(four.barrierStallTicks, mux.barrierStallTicks);
    EXPECT_EQ(four.barrierStallTicks, two.barrierStallTicks);
    EXPECT_EQ(four.quantaExecuted, mux.quantaExecuted);
    EXPECT_EQ(four.quantaExecuted, two.quantaExecuted);
    // A single executor multiplexing four shards covers every round's
    // stall except the last unit's — the covered share must be real.
    if (mux.barrierStallTicks > 0)
        EXPECT_GT(mux.coveredStallTicks, 0u);
}

TEST(ShardedDeterminismTest, TwoShardsMatchFourShardsOnMesh)
{
    // Shard counts that don't divide the system evenly still agree.
    config::SystemConfig cfg = shrink(config::baselineConfig());
    cfg.numClusters = 4;
    cfg.gpusPerCluster = 1;
    const harness::RunResult two =
        harness::runWorkload("GUPS", cfg, {.scale = kTinyScale, .shards = 2});
    const harness::RunResult four =
        harness::runWorkload("GUPS", cfg, {.scale = kTinyScale, .shards = 3});
    EXPECT_TRUE(sameMeasurement(two, four));
}

} // namespace
} // namespace netcrafter
