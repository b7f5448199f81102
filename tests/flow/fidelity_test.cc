/**
 * @file
 * Tests for fidelity selection (CLI/env parsing), flow-lane
 * conservation and determinism on real runs, and the result-cache
 * fidelity key.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/config/system_config.hh"
#include "src/exp/result_cache.hh"
#include "src/flow/fidelity.hh"
#include "src/flow/fidelity_controller.hh"
#include "src/harness/runner.hh"
#include "src/sim/sharded_engine.hh"

namespace netcrafter::flow {
namespace {

// Small problem, serial engine: fast enough for a unit test while
// still pushing thousands of packets through the flow lane.
harness::RunResult
runAt(const char *workload, Fidelity fidelity, double scale = 0.05)
{
    return harness::runWorkload(workload, config::baselineConfig(),
                                {.scale = scale,
                                 .exec = sim::ExecPolicy{1},
                                 .fidelity = fidelity});
}

TEST(Fidelity, NamesRoundTrip)
{
    EXPECT_STREQ(fidelityName(Fidelity::Cycle), "cycle");
    EXPECT_STREQ(fidelityName(Fidelity::Flow), "flow");
    EXPECT_STREQ(fidelityName(Fidelity::Hybrid), "hybrid");
    EXPECT_EQ(parseFidelity("cycle"), Fidelity::Cycle);
    EXPECT_EQ(parseFidelity("flow"), Fidelity::Flow);
    EXPECT_EQ(parseFidelity("hybrid"), Fidelity::Hybrid);
    EXPECT_EQ(parseFidelity("Cycle"), std::nullopt);
    EXPECT_EQ(parseFidelity(""), std::nullopt);
    EXPECT_EQ(parseFidelity("fast"), std::nullopt);
}

TEST(FidelityDeathTest, GarbageArgumentIsFatal)
{
    EXPECT_DEATH(parseFidelityOrDie("warp", "--fidelity"),
                 "invalid --fidelity value 'warp'");
}

TEST(FidelityDeathTest, GarbageEnvironmentIsFatal)
{
    // A sweep silently running at the wrong fidelity is worse than an
    // early exit, so the env hook validates instead of ignoring.
    ::setenv("NETCRAFTER_FIDELITY", "approximately", 1);
    EXPECT_DEATH((void)harness::RunOptions::fromEnv(),
                 "NETCRAFTER_FIDELITY");
    ::unsetenv("NETCRAFTER_FIDELITY");
}

TEST(Fidelity, EnvironmentSelectsAndFallsBack)
{
    auto fromEnv = [] { return harness::RunOptions::fromEnv().fidelity; };
    ::setenv("NETCRAFTER_FIDELITY", "hybrid", 1);
    EXPECT_EQ(fromEnv(), Fidelity::Hybrid);
    ::setenv("NETCRAFTER_FIDELITY", "flow", 1);
    EXPECT_EQ(fromEnv(), Fidelity::Flow);
    ::unsetenv("NETCRAFTER_FIDELITY");
    EXPECT_EQ(fromEnv(), Fidelity::Cycle);
    // Empty string counts as unset, not as garbage.
    ::setenv("NETCRAFTER_FIDELITY", "", 1);
    EXPECT_EQ(fromEnv(), Fidelity::Cycle);
    ::unsetenv("NETCRAFTER_FIDELITY");
}

TEST(FlowLane, CycleModeNeverTouchesTheFlowLane)
{
    const auto r = runAt("GUPS", Fidelity::Cycle);
    EXPECT_EQ(r.fidelity, Fidelity::Cycle);
    EXPECT_EQ(r.flowPackets, 0u);
    EXPECT_EQ(r.flowBytesInjected, 0u);
    EXPECT_EQ(r.flowRecomputes, 0u);
}

TEST(FlowLane, FlowModeConservesPacketsAndBytes)
{
    const auto r = runAt("GUPS", Fidelity::Flow);
    EXPECT_EQ(r.fidelity, Fidelity::Flow);
    // The run must actually exercise the lane...
    EXPECT_GT(r.flowPackets, 0u);
    EXPECT_GT(r.flowBytesInjected, 0u);
    // ...and every epoch-boundary conversion must conserve exactly:
    // nothing the flow lane accepted may be lost or duplicated.
    EXPECT_EQ(r.flowPackets, r.flowPacketsDelivered);
    EXPECT_EQ(r.flowBytesInjected, r.flowBytesDelivered);
}

TEST(FlowLane, HybridModeConservesAcrossLaneTransitions)
{
    // MVT settles into steady state, so hybrid both activates lanes and
    // (on instability) escalates back — the conversion paths in both
    // directions must conserve.
    const auto r = runAt("MVT", Fidelity::Hybrid, 0.1);
    EXPECT_EQ(r.fidelity, Fidelity::Hybrid);
    EXPECT_GT(r.flowCyclePackets, 0u);
    EXPECT_EQ(r.flowPackets, r.flowPacketsDelivered);
    EXPECT_EQ(r.flowBytesInjected, r.flowBytesDelivered);
}

TEST(FlowLane, FlowModeIsDeterministic)
{
    // The flow lane is integer-only by construction; two identical runs
    // must agree on every measurement, not just approximately.
    const auto a = runAt("MT", Fidelity::Flow);
    const auto b = runAt("MT", Fidelity::Flow);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.flowPackets, b.flowPackets);
    EXPECT_EQ(a.flowBytesInjected, b.flowBytesInjected);
    EXPECT_EQ(a.flowMd1WaitTicks, b.flowMd1WaitTicks);
    EXPECT_EQ(a.flowFifoWaitTicks, b.flowFifoWaitTicks);
    EXPECT_TRUE(harness::sameMeasurement(a, b));
}

TEST(CacheKeyFidelity, FidelityIsPartOfTheKey)
{
    exp::Job job{"j1", "GUPS", config::baselineConfig(), 1.0, {}};
    const auto cycle_key = exp::keyOf(job, Fidelity::Cycle);
    const auto flow_key = exp::keyOf(job, Fidelity::Flow);
    const auto hybrid_key = exp::keyOf(job, Fidelity::Hybrid);
    EXPECT_FALSE(cycle_key == flow_key);
    EXPECT_FALSE(cycle_key == hybrid_key);
    EXPECT_FALSE(flow_key == hybrid_key);
    // The single-argument overload is the cycle key: pre-fidelity call
    // sites keep their exact cache identity.
    EXPECT_TRUE(exp::keyOf(job) == cycle_key);
}

TEST(CacheKeyFidelity, ApproximateResultNeverAnswersACycleRequest)
{
    // Regression for the one way the cache could silently lie: a flow
    // run populating the entry a later cycle-accurate request reads.
    exp::ResultCache cache;
    exp::Job job{"j1", "GUPS", config::baselineConfig(), 1.0, {}};

    harness::RunResult flow_result;
    flow_result.workload = "GUPS";
    flow_result.cycles = 111;
    flow_result.fidelity = Fidelity::Flow;

    harness::RunResult cycle_result;
    cycle_result.workload = "GUPS";
    cycle_result.cycles = 222;

    bool hit = true;
    const auto first =
        cache.getOrRun(exp::keyOf(job, Fidelity::Flow),
                       [&] { return flow_result; }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(first.cycles, 111u);

    const auto second =
        cache.getOrRun(exp::keyOf(job, Fidelity::Cycle),
                       [&] { return cycle_result; }, &hit);
    EXPECT_FALSE(hit) << "cycle request must miss a flow-filled cache";
    EXPECT_EQ(second.cycles, 222u);

    // Each fidelity hits its own entry on re-request.
    const auto again =
        cache.getOrRun(exp::keyOf(job, Fidelity::Flow),
                       [&] { return cycle_result; }, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(again.cycles, 111u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(FlowEpochEnv, ParsesValidValues)
{
    EXPECT_EQ(parseFlowEpochTicksEnv("1"), 1u);
    EXPECT_EQ(parseFlowEpochTicksEnv("256"), 256u);
    EXPECT_EQ(parseFlowEpochTicksEnv("1073741824"), 1u << 30);
    EXPECT_EQ(parseFlowStableEpochsEnv("1"), 1u);
    EXPECT_EQ(parseFlowStableEpochsEnv("4"), 4u);
    EXPECT_EQ(parseFlowStableEpochsEnv("1048576"), 1u << 20);
}

TEST(FlowEpochEnvDeathTest, GarbageIsFatal)
{
    // Epoch 0 would classify every lane instantly; silently clamping
    // hides the typo, so both knobs validate like NETCRAFTER_SHARDS.
    EXPECT_DEATH(parseFlowEpochTicksEnv("0"),
                 "NETCRAFTER_FLOW_EPOCH_TICKS");
    EXPECT_DEATH(parseFlowEpochTicksEnv("256ms"),
                 "NETCRAFTER_FLOW_EPOCH_TICKS");
    EXPECT_DEATH(parseFlowEpochTicksEnv("-16"),
                 "NETCRAFTER_FLOW_EPOCH_TICKS");
    EXPECT_DEATH(parseFlowEpochTicksEnv("1073741825"),
                 "NETCRAFTER_FLOW_EPOCH_TICKS");
    EXPECT_DEATH(parseFlowStableEpochsEnv("0"),
                 "NETCRAFTER_FLOW_STABLE_EPOCHS");
    EXPECT_DEATH(parseFlowStableEpochsEnv("four"),
                 "NETCRAFTER_FLOW_STABLE_EPOCHS");
    EXPECT_DEATH(parseFlowStableEpochsEnv("1048577"),
                 "NETCRAFTER_FLOW_STABLE_EPOCHS");
}

TEST(FlowEpochEnv, EnvironmentOverridesControllerDefaults)
{
    ::unsetenv("NETCRAFTER_FLOW_EPOCH_TICKS");
    ::unsetenv("NETCRAFTER_FLOW_STABLE_EPOCHS");
    EXPECT_EQ(flowEpochTicksFromEnv(
                  FidelityController::kDefaultEpochTicks),
              FidelityController::kDefaultEpochTicks);
    EXPECT_EQ(flowStableEpochsFromEnv(
                  FidelityController::kDefaultStableEpochs),
              FidelityController::kDefaultStableEpochs);

    ::setenv("NETCRAFTER_FLOW_EPOCH_TICKS", "512", 1);
    ::setenv("NETCRAFTER_FLOW_STABLE_EPOCHS", "8", 1);
    EXPECT_EQ(flowEpochTicksFromEnv(
                  FidelityController::kDefaultEpochTicks),
              512u);
    EXPECT_EQ(flowStableEpochsFromEnv(
                  FidelityController::kDefaultStableEpochs),
              8u);

    // A constructed controller picks the override up.
    const FidelityController ctl(config::baselineConfig(),
                                 Fidelity::Hybrid);
    EXPECT_EQ(ctl.epochTicks(), 512u);
    EXPECT_EQ(ctl.stableEpochs(), 8u);

    ::unsetenv("NETCRAFTER_FLOW_EPOCH_TICKS");
    ::unsetenv("NETCRAFTER_FLOW_STABLE_EPOCHS");
}

TEST(FlowEpochEnv, KnobsShiftTheHybridHandoverPoint)
{
    // A much longer epoch with a higher stability requirement delays
    // (or prevents) flow-lane handover, so the hybrid run hands fewer
    // packets to the flow model than the default-knob run. Both remain
    // valid hybrid runs; only the split moves.
    const harness::RunResult defaults = runAt("GUPS", Fidelity::Hybrid);
    ::setenv("NETCRAFTER_FLOW_EPOCH_TICKS", "65536", 1);
    ::setenv("NETCRAFTER_FLOW_STABLE_EPOCHS", "64", 1);
    const harness::RunResult sluggish = runAt("GUPS", Fidelity::Hybrid);
    ::unsetenv("NETCRAFTER_FLOW_EPOCH_TICKS");
    ::unsetenv("NETCRAFTER_FLOW_STABLE_EPOCHS");

    EXPECT_LE(sluggish.flowPackets, defaults.flowPackets);
    EXPECT_EQ(defaults.instructions, sluggish.instructions)
        << "epoch knobs may move the lane split, never the work";
}

} // namespace
} // namespace netcrafter::flow
