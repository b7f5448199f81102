/**
 * @file
 * Unit tests for the conservative barrier-synchronized sharded engine:
 * quantum windows, clock alignment, stall accounting, and the wire
 * event phase ordering the protocol's determinism rests on.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/sharded_engine.hh"

namespace netcrafter::sim {
namespace {

/**
 * Minimal cross-shard port for protocol tests: carries bare arrival
 * ticks from the source to the destination shard through the same
 * outbox -> sealed -> import lifecycle the wire channels use, with a
 * fixed latency contribution and no credit direction.
 */
class TickPort : public CrossShardPort
{
  public:
    TickPort(Engine &dst_engine, unsigned src_shard, unsigned dst_shard,
             Tick latency)
        : dstEngine_(dst_engine), srcShard_(src_shard),
          dstShard_(dst_shard), latency_(latency)
    {
    }

    /** Called from a source-shard event; arrival must respect latency. */
    void send(Tick arrival) { outbox_.push_back(arrival); }

    const std::vector<Tick> &delivered() const { return delivered_; }

    unsigned srcShard() const override { return srcShard_; }
    unsigned dstShard() const override { return dstShard_; }
    Tick minLatency() const override { return latency_; }

    void
    sealExports() override
    {
        sealed_.insert(sealed_.end(), outbox_.begin(), outbox_.end());
        outbox_.clear();
    }

    Tick
    earliestSealedArrivalAtDst() const override
    {
        Tick earliest = kTickNever;
        for (Tick t : sealed_)
            earliest = std::min(earliest, t);
        return earliest;
    }

    Tick earliestSealedArrivalAtSrc() const override { return kTickNever; }

    void
    importAtDst() override
    {
        for (Tick t : sealed_)
            dstEngine_.scheduleWireAbs(
                t, [this] { delivered_.push_back(dstEngine_.now()); });
        sealed_.clear();
    }

    void importAtSrc() override {}

    std::size_t
    pendingExports() const override
    {
        return outbox_.size() + sealed_.size();
    }

  private:
    Engine &dstEngine_;
    unsigned srcShard_;
    unsigned dstShard_;
    Tick latency_;
    std::vector<Tick> outbox_;
    std::vector<Tick> sealed_;
    std::vector<Tick> delivered_;
};

TEST(ShardedEngineTest, SingleShardRunsSerially)
{
    ShardedEngine eng(1);
    ASSERT_EQ(eng.numShards(), 1u);

    std::vector<Tick> fired;
    eng.shard(0).schedule(5, [&] { fired.push_back(eng.shard(0).now()); });
    eng.shard(0).schedule(2, [&] { fired.push_back(eng.shard(0).now()); });

    EXPECT_EQ(eng.run(), RunStatus::Drained);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 2u);
    EXPECT_EQ(fired[1], 5u);
    EXPECT_EQ(eng.quantaExecuted(), 0u); // no barriers when serial
    EXPECT_EQ(eng.eventsExecuted(), 2u);
}

TEST(ShardedEngineTest, TwoShardsDrainIndependentWork)
{
    ShardedEngine eng(2);
    TickPort port(eng.shard(1), 0, 1, 10);
    eng.registerPort(port);

    std::vector<Tick> fired0, fired1;
    for (Tick t : {3u, 17u, 42u})
        eng.shard(0).schedule(t, [&fired0, &eng] {
            fired0.push_back(eng.shard(0).now());
        });
    for (Tick t : {5u, 25u})
        eng.shard(1).schedule(t, [&fired1, &eng] {
            fired1.push_back(eng.shard(1).now());
        });

    EXPECT_EQ(eng.run(), RunStatus::Drained);
    EXPECT_EQ(fired0, (std::vector<Tick>{3, 17, 42}));
    EXPECT_EQ(fired1, (std::vector<Tick>{5, 25}));
    EXPECT_EQ(eng.eventsExecuted(), 5u);
    // A 10-tick channel bounds every window to 10 ticks past the
    // earliest runnable tick: [3,12] [17,26] [42,51] — rounds only
    // where events remain.
    EXPECT_EQ(eng.quantaExecuted(), 3u);
}

TEST(ShardedEngineTest, AdaptiveDrainsUnconnectedShardsInOneStride)
{
    // With no registered cross-shard channel, no shard can ever affect
    // another: the adaptive bound is infinite and the whole drain is
    // one unbounded window with no stall on anyone.
    ShardedEngine eng(2);

    std::vector<Tick> fired0, fired1;
    for (Tick t : {3u, 17u, 42u})
        eng.shard(0).schedule(t, [&fired0, &eng] {
            fired0.push_back(eng.shard(0).now());
        });
    for (Tick t : {5u, 25u})
        eng.shard(1).schedule(t, [&fired1, &eng] {
            fired1.push_back(eng.shard(1).now());
        });

    EXPECT_EQ(eng.run(), RunStatus::Drained);
    EXPECT_EQ(fired0, (std::vector<Tick>{3, 17, 42}));
    EXPECT_EQ(fired1, (std::vector<Tick>{5, 25}));
    EXPECT_EQ(eng.quantaExecuted(), 1u);
    EXPECT_EQ(eng.totalBarrierStallTicks(), 0u);
    // Unbounded windows are excluded from the width distribution.
    EXPECT_EQ(eng.windowTicksDist().total(), 0u);
}

TEST(ShardedEngineTest, LimitHitStopsBeforeFutureEvents)
{
    ShardedEngine eng(2);
    TickPort port(eng.shard(1), 0, 1, 16);
    eng.registerPort(port);

    bool late_fired = false;
    eng.shard(0).schedule(5, [] {});
    eng.shard(1).schedule(100, [&] { late_fired = true; });

    EXPECT_EQ(eng.run(50), RunStatus::LimitHit);
    EXPECT_FALSE(late_fired);
    // The late event survives and fires on the next run.
    EXPECT_EQ(eng.run(), RunStatus::Drained);
    EXPECT_TRUE(late_fired);
}

TEST(ShardedEngineTest, AlignClocksBringsAllShardsToGlobalMax)
{
    ShardedEngine eng(2);
    TickPort port(eng.shard(1), 0, 1, 8);
    eng.registerPort(port);

    eng.shard(0).schedule(7, [] {});
    eng.shard(1).schedule(31, [] {});

    EXPECT_EQ(eng.run(), RunStatus::Drained);
    eng.alignClocks();
    EXPECT_EQ(eng.shard(0).now(), 31u);
    EXPECT_EQ(eng.shard(1).now(), 31u);
    EXPECT_EQ(eng.now(), 31u);
}

TEST(ShardedEngineTest, BarrierStallTicksAccrueOnIdleShard)
{
    // A shard that runs out of events inside a window it participates
    // in stalls through the window's tail. With a 4-tick channel the
    // windows are [1,4], [6,9] and [11,14]: shard 1 stalls 3..4 of the
    // first (2 ticks) and parks through the rest; shard 0 stalls 3
    // ticks at the tail of each.
    ShardedEngine eng(2);
    TickPort port(eng.shard(1), 0, 1, 4);
    eng.registerPort(port);

    for (Tick t : {1u, 6u, 11u})
        eng.shard(0).schedule(t, [] {});
    eng.shard(1).schedule(2, [] {});

    EXPECT_EQ(eng.run(), RunStatus::Drained);
    EXPECT_EQ(eng.quantaExecuted(), 3u);
    EXPECT_EQ(eng.barrierStallTicks(0), 9u);
    EXPECT_EQ(eng.barrierStallTicks(1), 2u);
    EXPECT_EQ(eng.idleParks(), 2u);
    EXPECT_EQ(eng.barrierRoundsSkipped(), 2u);
    EXPECT_EQ(eng.totalBarrierStallTicks(),
              eng.barrierStallTicks(0) + eng.barrierStallTicks(1));
}

TEST(ShardedEngineTest, AdaptiveParksIdleShardInsteadOfStalling)
{
    // A cross-shard channel bounds the windows, yet a workless shard
    // sleeps through every round instead of spinning at each window
    // tail.
    ShardedEngine eng(2);
    TickPort port(eng.shard(1), 0, 1, 4);
    eng.registerPort(port);

    for (Tick t : {1u, 6u, 11u})
        eng.shard(0).schedule(t, [] {});

    EXPECT_EQ(eng.run(), RunStatus::Drained);
    EXPECT_EQ(eng.barrierStallTicks(1), 0u);
    EXPECT_GT(eng.idleParks(), 0u);
    EXPECT_EQ(eng.barrierRoundsSkipped(), eng.quantaExecuted());
}

TEST(ShardedEngineTest, AdaptiveWindowNeverNarrowerThanFixedQuantum)
{
    // The adaptive bound min_s(N_s + L_s) - 1 is never narrower than
    // a fixed window [m, m + Q - 1]: N_s >= m for every shard and
    // L_s >= Q by definition of Q = min channel latency. Every bounded
    // window must therefore span at least Q ticks.
    constexpr Tick kLatency = 10;
    ShardedEngine eng(2);
    TickPort port(eng.shard(1), 0, 1, kLatency);
    eng.registerPort(port);

    for (Tick t : {0u, 40u})
        eng.shard(0).schedule(t, [] {});
    eng.shard(1).schedule(5, [] {});

    EXPECT_EQ(eng.run(), RunStatus::Drained);
    // [0,9] with both shards runnable, then [40,49] with shard 1
    // parked (its bound no longer constrains the window).
    EXPECT_EQ(eng.quantaExecuted(), 2u);
    EXPECT_EQ(eng.windowTicksDist().total(), 2u);
    EXPECT_GE(eng.windowTicksAvg().min(), static_cast<double>(kLatency));
    EXPECT_EQ(eng.barrierRoundsSkipped(), 1u);
    EXPECT_EQ(eng.idleParks(), 1u);
}

TEST(ShardedEngineTest, ParkedShardWakesForSealedArrival)
{
    // Shard 1 has no events of its own, so it parks immediately; a
    // cross-shard message addressed to it must bring it back into the
    // active set of the window containing the arrival.
    constexpr Tick kLatency = 7;
    ShardedEngine eng(2);
    TickPort port(eng.shard(1), 0, 1, kLatency);
    eng.registerPort(port);

    eng.shard(0).schedule(3, [&] {
        port.send(eng.shard(0).now() + kLatency);
    });

    EXPECT_EQ(eng.run(), RunStatus::Drained);
    EXPECT_EQ(port.delivered(), (std::vector<Tick>{10}));
    EXPECT_EQ(port.pendingExports(), 0u);
    // Both rounds ran solo: first shard 0 sending, then shard 1
    // receiving — no rendezvous was ever needed.
    EXPECT_EQ(eng.quantaExecuted(), 2u);
    EXPECT_EQ(eng.barrierRoundsSkipped(), 2u);
    EXPECT_EQ(eng.idleParks(), 2u);
}

TEST(ShardedEngineTest, RepeatedRunsAcrossKernelBarriers)
{
    // Mimic the inter-kernel pattern: run to drain, align, schedule
    // more, run again — worker threads must park and resume cleanly.
    ShardedEngine eng(2);
    TickPort port(eng.shard(1), 0, 1, 16);
    eng.registerPort(port);

    // Per-shard counters: callbacks run concurrently on their shard's
    // thread, so they must not share mutable state.
    int fired0 = 0, fired1 = 0;
    for (int kernel = 0; kernel < 3; ++kernel) {
        eng.shard(0).schedule(4, [&fired0] { ++fired0; });
        eng.shard(1).schedule(9, [&fired1] { ++fired1; });
        EXPECT_EQ(eng.run(), RunStatus::Drained);
        eng.alignClocks();
    }
    EXPECT_EQ(fired0, 3);
    EXPECT_EQ(fired1, 3);
    EXPECT_EQ(eng.eventsExecuted(), 6u);
}

TEST(ShardedEngineTest, WirePhaseFiresBeforeDefaultAtSameTick)
{
    // The determinism argument requires wire-phase events (deliveries,
    // credit returns) to sort before a tick's default events regardless
    // of scheduling order.
    Engine eng;
    std::vector<int> order;
    eng.schedule(10, [&] { order.push_back(1); }); // default phase
    eng.scheduleWireAbs(10, [&] { order.push_back(0); });
    eng.schedule(10, [&] { order.push_back(2); }); // default phase
    EXPECT_EQ(eng.run(), RunStatus::Drained);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ShardedEngineTest, ExecPolicyClampsThreadsToShards)
{
    ShardedEngine wide(4, ExecPolicy{16});
    EXPECT_EQ(wide.workThreads(), 4u);
    ShardedEngine dflt(4);
    EXPECT_EQ(dflt.workThreads(), 4u); // 0 = one thread per shard
    ShardedEngine narrow(4, ExecPolicy{2});
    EXPECT_EQ(narrow.workThreads(), 2u);
    EXPECT_EQ(narrow.execPolicy().threads, 2u);
    ShardedEngine serial(1, ExecPolicy{8});
    EXPECT_EQ(serial.workThreads(), 1u);
}

/** Four shards in a ring of 8-tick channels (s -> s+1), so every shard
 *  bounds the windows. */
struct RingEngine
{
    explicit RingEngine(const ExecPolicy &exec) : eng(4, exec)
    {
        for (unsigned s = 0; s < 4; ++s) {
            ports.push_back(std::make_unique<TickPort>(
                eng.shard((s + 1) % 4), s, (s + 1) % 4, 8));
            eng.registerPort(*ports.back());
        }
    }

    ShardedEngine eng;
    std::vector<std::unique_ptr<TickPort>> ports;
};

/**
 * Run the same 4-shard ring schedule under one execution policy and
 * return (per-shard fired ticks, total stall ticks). The schedule is
 * uneven on purpose: shard 0 carries 4x the events of shard 3, so
 * multiplexed executors face real imbalance.
 */
std::array<std::vector<Tick>, 4>
runUnevenSchedule(const ExecPolicy &exec, std::uint64_t *stall_ticks)
{
    RingEngine ring(exec);
    ShardedEngine &eng = ring.eng;

    std::array<std::vector<Tick>, 4> fired;
    for (unsigned s = 0; s < 4; ++s) {
        const unsigned count = 4 * (4 - s); // 16, 12, 8, 4 events
        for (unsigned i = 0; i < count; ++i) {
            const Tick when = 1 + 3 * i + s;
            eng.shard(s).schedule(when, [&fired, s, &eng] {
                fired[s].push_back(eng.shard(s).now());
            });
        }
    }
    EXPECT_EQ(eng.run(), RunStatus::Drained);
    *stall_ticks = eng.totalBarrierStallTicks();

    // Counter invariants hold under every policy: coverage never
    // exceeds the total stall.
    EXPECT_EQ(eng.eventsExecuted(), 40u);
    EXPECT_LE(eng.coveredStallTicks(), eng.totalBarrierStallTicks());
    EXPECT_EQ(eng.residualStallTicks(),
              eng.totalBarrierStallTicks() - eng.coveredStallTicks());
    return fired;
}

TEST(ShardedEngineTest, ResultsInvariantAcrossThreadCounts)
{
    // Shards are deterministic work partitions and threads are mere
    // executors, so event order, per-shard clocks, and the (sim-tick)
    // stall census are identical for every thread count, including the
    // uneven homing of 3 threads over 4 shards.
    std::uint64_t stall_base = 0;
    const auto base = runUnevenSchedule(ExecPolicy{0}, &stall_base);
    for (unsigned threads : {1u, 2u, 3u}) {
        std::uint64_t stall = 0;
        const auto mux = runUnevenSchedule(ExecPolicy{threads}, &stall);
        EXPECT_EQ(base, mux) << threads << " threads";
        // barrierStallTicks is a pure function of the round protocol.
        EXPECT_EQ(stall_base, stall) << threads << " threads";
    }
}

TEST(ShardedEngineTest, SingleThreadMultiplexesAndCoversStalls)
{
    // One executor over four shards: every round the thread runs all
    // active units back to back, so every unit's window-tail stall
    // except the round's last is covered — the thread was busy, not
    // barrier-bound.
    RingEngine ring(ExecPolicy{1});
    ShardedEngine &eng = ring.eng;
    ASSERT_EQ(eng.workThreads(), 1u);

    for (unsigned s = 0; s < 4; ++s)
        for (Tick t : {2u, 12u, 22u})
            eng.shard(s).schedule(t + s, [] {});

    EXPECT_EQ(eng.run(), RunStatus::Drained);
    EXPECT_GT(eng.totalBarrierStallTicks(), 0u);
    EXPECT_GT(eng.coveredStallTicks(), 0u);
    EXPECT_LT(eng.residualStallTicks(), eng.totalBarrierStallTicks());
    // One participating thread per round: every rendezvous is skipped.
    EXPECT_EQ(eng.barrierRoundsSkipped(), eng.quantaExecuted());
}

TEST(ShardedEngineTest, HostSpansRecordExecutorAndCoverage)
{
    // Single executor, host timeline on: every span names thread 0,
    // and in each multi-unit round every span except the last is
    // covered.
    ShardedEngine eng(2, ExecPolicy{1});
    TickPort port(eng.shard(1), 0, 1, 8);
    eng.registerPort(port);
    eng.setHostTimelineEnabled(true);

    eng.shard(0).schedule(1, [] {});
    eng.shard(1).schedule(2, [] {});
    EXPECT_EQ(eng.run(), RunStatus::Drained);

    ASSERT_FALSE(eng.hostSpans(0).empty());
    ASSERT_FALSE(eng.hostSpans(1).empty());
    for (unsigned s = 0; s < 2; ++s)
        for (const QuantumSpan &span : eng.hostSpans(s))
            EXPECT_EQ(span.executor, 0u);
    // The thread runs shard 0 then shard 1 in the shared round, so
    // shard 0's span is covered and shard 1's is not.
    EXPECT_TRUE(eng.hostSpans(0).front().covered);
    EXPECT_FALSE(eng.hostSpans(1).front().covered);
    // The coordinator logged one RoundRecord per decided round.
    EXPECT_EQ(eng.roundLog().size(), eng.quantaExecuted());
    EXPECT_EQ(eng.roundLog().front().units, 2u);
    EXPECT_EQ(eng.roundLog().front().threadsWoken, 1u);
}

TEST(ShardedEngineTest, WindowNeverExecutesEventsPastTheQuantum)
{
    // An event scheduled inside a window for a tick beyond it must wait
    // for a later window; runWindow() must not run past its limit.
    Engine eng;
    std::vector<Tick> fired;
    eng.schedule(2, [&] {
        fired.push_back(eng.now());
        eng.schedule(100, [&] { fired.push_back(eng.now()); });
    });
    EXPECT_EQ(eng.runWindow(50), RunStatus::LimitHit);
    EXPECT_EQ(fired, (std::vector<Tick>{2}));
    // runWindow leaves now() at the last executed event, not the limit.
    EXPECT_EQ(eng.now(), 2u);
    EXPECT_EQ(eng.nextEventTick(), 102u);
}

} // namespace
} // namespace netcrafter::sim
