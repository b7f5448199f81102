/**
 * @file
 * SelfScheduling exactness: the intrusive wake (with its pooled
 * fallback for early-acknowledged wakes) must replay the event stream
 * of a wake that schedules one pooled one-shot per notify, tick for
 * tick and event for event, including the stale same-tick wakes a
 * directly called handler leaves behind.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/random.hh"
#include "src/sim/self_scheduling.hh"

namespace netcrafter::sim {
namespace {

/** The reference: every notify schedules its own pooled one-shot. */
template <typename T, void (T::*Handler)()>
class PooledWake
{
  public:
    PooledWake(Engine &engine, T *obj) : engine_(engine), obj_(obj) {}

    void
    notify()
    {
        if (pending_)
            return;
        pending_ = true;
        engine_.schedule(1, [this] { (obj_->*Handler)(); });
    }

    void clearPending() { pending_ = false; }

    bool pending() const { return pending_; }

  private:
    Engine &engine_;
    T *obj_;
    bool pending_ = false;
};

/** One handler entry: tick and whether it was a stale repeat. */
using Entry = std::pair<Tick, bool>;

/**
 * A switch-like toy: its handler runs at most once per tick (a repeat
 * is a stale wake), and it re-arms either with a next-cycle notify()
 * or with a long-delay wake that calls the handler directly — which
 * acknowledges any notify wake pending for that tick early.
 */
template <bool Intrusive>
class Toy
{
  public:
    Toy(Engine &engine, std::uint64_t seed)
        : engine_(engine), rng_(seed), wake_(engine, this)
    {}

    void
    handler()
    {
        const Tick t = engine_.now();
        if (t == lastTick_) {
            log.push_back({t, true});
            return;
        }
        lastTick_ = t;
        wake_.clearPending();
        log.push_back({t, false});
        if (work_ == 0)
            return;
        --work_;
        if (rng_.chance(0.5)) {
            wake_.notify();
        } else {
            const Tick delay = 1 + rng_.below(3);
            engine_.schedule(delay, [this] { handler(); });
        }
    }

    /** External hook: wake next cycle (a buffer push). */
    void poke() { wake_.notify(); }

    /** External long wake landing on a tick: calls the handler. */
    void directWake() { handler(); }

    void addWork(std::uint32_t n) { work_ += n; }

    bool pending() const { return wake_.pending(); }

    std::vector<Entry> log;

  private:
    using Wake = std::conditional_t<Intrusive,
                                    SelfScheduling<Toy, &Toy::handler>,
                                    PooledWake<Toy, &Toy::handler>>;

    Engine &engine_;
    Pcg32 rng_;
    Tick lastTick_ = kTickNever;
    std::uint32_t work_ = 0;
    Wake wake_;
};

/** Drive a toy through a random script of pokes and direct wakes. */
template <bool Intrusive>
std::pair<std::vector<Entry>, std::uint64_t>
runScript(std::uint64_t seed)
{
    Engine engine;
    Toy<Intrusive> toy(engine, seed);
    Pcg32 script(seed ^ 0x5eed);
    for (int i = 0; i < 400; ++i) {
        const Tick at = script.below(2000);
        const int kind = static_cast<int>(script.below(3));
        engine.scheduleAbs(at, [&toy, kind] {
            if (kind == 0) {
                toy.poke();
            } else if (kind == 1) {
                toy.directWake();
            } else {
                toy.addWork(3);
                toy.poke();
            }
        });
    }
    engine.run();
    return {toy.log, engine.eventsExecuted()};
}

TEST(SelfScheduling, MatchesPooledWakeEventForEvent)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto pooled = runScript<false>(seed);
        const auto intrusive = runScript<true>(seed);
        ASSERT_FALSE(pooled.first.empty());
        EXPECT_EQ(intrusive.first, pooled.first) << "seed " << seed;
        EXPECT_EQ(intrusive.second, pooled.second) << "seed " << seed;
    }
}

TEST(SelfScheduling, ScriptExercisesStaleSameTickWakes)
{
    // The fallback path only matters if the script really produces
    // early-acknowledged wakes that later fire stale.
    std::size_t stale = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        for (const Entry &e : runScript<true>(seed).first)
            stale += e.second ? 1 : 0;
    }
    EXPECT_GT(stale, 0u);
}

TEST(SelfScheduling, DestroyingWithPendingWakeLeavesNothingQueued)
{
    Engine engine;
    {
        Toy<true> toy(engine, 7);
        toy.poke();
        EXPECT_TRUE(toy.pending());
        EXPECT_EQ(engine.pendingEvents(), 1u);
    }
    EXPECT_EQ(engine.pendingEvents(), 0u);
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_EQ(engine.eventsExecuted(), 0u);
}

} // namespace
} // namespace netcrafter::sim
