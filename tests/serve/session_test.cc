/** @file End-to-end tests for the open-loop serving session. */

#include <gtest/gtest.h>

#include "src/config/system_config.hh"
#include "src/harness/runner.hh"
#include "src/serve/serve_config.hh"
#include "src/serve/session.hh"

namespace netcrafter::serve {
namespace {

/** A scenario small enough to drain in well under a second. */
ServeConfig
tinyScenario()
{
    ServeConfig sc;
    sc.enabled = true;
    sc.arrival = ArrivalKind::Poisson;
    sc.offeredLoad = 3.0;
    sc.seed = 42;
    sc.warmupTicks = 1'000;
    sc.measureTicks = 4'000;
    return sc;
}

constexpr double kTinyScale = 0.05;

TEST(ServeSession, RunsDrainAndAccountRequests)
{
    const ServeConfig sc = tinyScenario();
    gpu::MultiGpuSystem sys(config::baselineConfig());
    ServeSession session(sys, sc, kTinyScale);
    const ServeReport report = session.run();

    EXPECT_EQ(report.status, sim::RunStatus::Drained);
    EXPECT_GT(report.injected, 0u);
    // Open loop drains naturally: everything injected completes.
    EXPECT_EQ(report.completed, report.injected);
    EXPECT_GT(report.measured, 0u);
    EXPECT_LE(report.measured, report.injected);
    EXPECT_GE(report.peakInflight, 1u);
    EXPECT_GT(report.throughput, 0.0);
    // The run spans the arrival horizon plus drain.
    EXPECT_GE(report.cycles, sc.warmupTicks + sc.measureTicks);

    // The aggregate covers exactly the per-class measured counts.
    std::uint64_t perClass = 0;
    for (std::size_t c = 0; c < kNumTrafficClasses; ++c)
        perClass += report.perClass[c].measured;
    EXPECT_EQ(perClass, report.aggregate.measured);
    EXPECT_EQ(report.aggregate.measured, report.measured);
}

TEST(ServeSession, PercentilesAreOrdered)
{
    const ServeConfig sc = tinyScenario();
    gpu::MultiGpuSystem sys(config::baselineConfig());
    const ServeReport report = ServeSession(sys, sc, kTinyScale).run();

    auto checkOrder = [](const ClassLatency &lat) {
        if (lat.measured == 0)
            return;
        EXPECT_GT(lat.p50, 0u);
        EXPECT_LE(lat.p50, lat.p95);
        EXPECT_LE(lat.p95, lat.p99);
        EXPECT_LE(lat.p99, lat.p999);
        EXPECT_GT(lat.meanLatency, 0.0);
    };
    for (std::size_t c = 0; c < kNumTrafficClasses; ++c)
        checkOrder(report.perClass[c]);
    checkOrder(report.aggregate);
    EXPECT_GT(report.aggregate.measured, 0u);
}

TEST(ServeSession, SameSeedReproduces)
{
    const ServeConfig sc = tinyScenario();
    const harness::RunResult a =
        harness::runServe(sc, config::baselineConfig(),
                          {.scale = kTinyScale, .shards = 1});
    const harness::RunResult b =
        harness::runServe(sc, config::baselineConfig(),
                          {.scale = kTinyScale, .shards = 1});
    EXPECT_TRUE(harness::sameMeasurement(a, b));
}

TEST(ServeSession, DifferentSeedChangesTheSchedule)
{
    ServeConfig sc = tinyScenario();
    const harness::RunResult a =
        harness::runServe(sc, config::baselineConfig(),
                          {.scale = kTinyScale, .shards = 1});
    sc.seed += 1;
    const harness::RunResult b =
        harness::runServe(sc, config::baselineConfig(),
                          {.scale = kTinyScale, .shards = 1});
    EXPECT_FALSE(harness::sameMeasurement(a, b));
}

TEST(ServeSession, BitIdenticalAcrossShardCounts)
{
    // The headline determinism guarantee: every measured field —
    // injected/measured counts, throughput, and all per-class
    // percentiles — is bit-identical for 1, 2, and 4 shards. A shard
    // partitions whole clusters, so the 4-shard point needs a
    // 4-cluster topology (shards > clusters is a loud error now).
    const ServeConfig sc = tinyScenario();
    config::SystemConfig cfg = config::baselineConfig();
    cfg.numClusters = 4;
    const harness::RunResult serial =
        harness::runServe(sc, cfg, {.scale = kTinyScale, .shards = 1});
    const harness::RunResult two =
        harness::runServe(sc, cfg, {.scale = kTinyScale, .shards = 2});
    const harness::RunResult four =
        harness::runServe(sc, cfg, {.scale = kTinyScale, .shards = 4});

    EXPECT_TRUE(harness::sameMeasurement(serial, two));
    EXPECT_TRUE(harness::sameMeasurement(serial, four));

    // Spot-check the serve-specific fields explicitly so a future
    // sameMeasurement regression can't silently exclude them.
    EXPECT_EQ(serial.serveInjected, two.serveInjected);
    EXPECT_EQ(serial.serveMeasured, four.serveMeasured);
    for (int c = 0; c < 4; ++c) {
        EXPECT_EQ(serial.serveClasses[c].p99, two.serveClasses[c].p99)
            << "class " << c;
        EXPECT_EQ(serial.serveClasses[c].p999, four.serveClasses[c].p999)
            << "class " << c;
    }
}

TEST(ServeSession, RunServeFillsHarnessFields)
{
    const ServeConfig sc = tinyScenario();
    const harness::RunResult r =
        harness::runServe(sc, config::baselineConfig(),
                          {.scale = kTinyScale, .shards = 1});

    EXPECT_EQ(r.workload, "serve-poisson");
    EXPECT_DOUBLE_EQ(r.offeredLoad, sc.offeredLoad);
    EXPECT_GT(r.serveInjected, 0u);
    EXPECT_EQ(r.serveCompleted, r.serveInjected);
    EXPECT_GT(r.serveThroughput, 0.0);
    // Slot 3 is the aggregate across classes.
    EXPECT_EQ(r.serveClasses[3].measured, r.serveMeasured);
    // Ordinary measurements ride along with the serving fields.
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
}

TEST(ServeSession, MeasurementWindowBoundsMeasuredCount)
{
    // Halving the measurement window must not increase the measured
    // request count; the warmup phase is always excluded.
    ServeConfig wide = tinyScenario();
    ServeConfig narrow = wide;
    narrow.measureTicks = wide.measureTicks / 2;

    const harness::RunResult a =
        harness::runServe(wide, config::baselineConfig(),
                          {.scale = kTinyScale, .shards = 1});
    const harness::RunResult b =
        harness::runServe(narrow, config::baselineConfig(),
                          {.scale = kTinyScale, .shards = 1});
    EXPECT_GT(a.serveMeasured, 0u);
    EXPECT_GE(a.serveMeasured, b.serveMeasured);
    EXPECT_LT(a.serveMeasured, a.serveInjected);
}

} // namespace
} // namespace netcrafter::serve
