/** @file Unit tests for the discrete-event engine and event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/random.hh"
#include "src/sim/small_fn.hh"

namespace netcrafter::sim {
namespace {

/** Minimal intrusive event running an arbitrary callback. */
class TestEvent : public Event
{
  public:
    explicit TestEvent(std::function<void()> fn = nullptr)
        : fn_(std::move(fn))
    {}

    void
    process() override
    {
        if (fn_)
            fn_();
    }

  private:
    std::function<void()> fn_;
};

TEST(EventQueue, OrdersByTick)
{
    EventQueue q;
    std::vector<int> order;
    TestEvent e3([&] { order.push_back(3); });
    TestEvent e1([&] { order.push_back(1); });
    TestEvent e2([&] { order.push_back(2); });
    q.schedule(e3, 30);
    q.schedule(e1, 10);
    q.schedule(e2, 20);
    while (!q.empty())
        q.pop()->process();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<std::unique_ptr<TestEvent>> events;
    for (int i = 0; i < 10; ++i) {
        events.push_back(std::make_unique<TestEvent>(
            [&order, i] { order.push_back(i); }));
        q.schedule(*events.back(), 5);
    }
    while (!q.empty())
        q.pop()->process();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, FarFutureEventsUseTheHeap)
{
    EventQueue q;
    TestEvent near_ev, far_ev;
    q.schedule(near_ev, EventQueue::kWheelSlots - 1);
    q.schedule(far_ev, EventQueue::kWheelSlots + 1000);
    EXPECT_EQ(q.nearScheduled(), 1u);
    EXPECT_EQ(q.farScheduled(), 1u);
    EXPECT_EQ(q.pop(), &near_ev);
    // The far event migrates into the wheel when the base advances.
    EXPECT_EQ(q.nextTick(), EventQueue::kWheelSlots + 1000);
    EXPECT_EQ(q.pop(), &far_ev);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopReportsWhenAndClearsScheduled)
{
    EventQueue q;
    TestEvent ev;
    q.schedule(ev, 123);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 123u);
    Event *popped = q.pop();
    EXPECT_EQ(popped, &ev);
    EXPECT_FALSE(ev.scheduled());
    EXPECT_EQ(popped->when(), 123u);
}

TEST(EventQueue, ClearUnschedulesEverything)
{
    EventQueue q;
    TestEvent near_ev, far_ev;
    q.schedule(near_ev, 3);
    q.schedule(far_ev, 500);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(near_ev.scheduled());
    EXPECT_FALSE(far_ev.scheduled());
    // Both events are reusable after clear().
    q.schedule(near_ev, 1);
    q.schedule(far_ev, 2);
    EXPECT_EQ(q.pop(), &near_ev);
    EXPECT_EQ(q.pop(), &far_ev);
}

TEST(EventQueue, DescheduleUnlinksWithoutDisturbingOthers)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<std::unique_ptr<TestEvent>> events;
    // Three same-tick wheel events and three far-future heap events.
    const Tick ticks[] = {5, 5, 5, 900, 700, 800};
    for (int i = 0; i < 6; ++i) {
        events.push_back(std::make_unique<TestEvent>(
            [&order, i] { order.push_back(i); }));
        q.schedule(*events.back(), ticks[i]);
    }
    q.deschedule(*events[1]); // middle of a wheel bucket
    q.deschedule(*events[4]); // heap root
    EXPECT_FALSE(events[1]->scheduled());
    EXPECT_FALSE(events[4]->scheduled());
    EXPECT_EQ(q.size(), 4u);
    while (!q.empty())
        q.pop()->process();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 5, 3}));

    // A bucket emptied by deschedule() frees its tick.
    TestEvent lone, later;
    q.schedule(lone, 950);
    q.schedule(later, 960);
    q.deschedule(lone);
    EXPECT_EQ(q.nextTick(), 960u);
    EXPECT_EQ(q.pop(), &later);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StressRandomOrderMatchesReferenceHeap)
{
    // Random interleaving of schedules and pops, checked against a
    // (tick, seq) multimap reference model. Ticks span several wheel
    // revolutions so wheel<->heap migration is exercised.
    EventQueue q;
    Pcg32 rng(42);
    std::vector<std::unique_ptr<TestEvent>> storage;
    std::vector<std::pair<Tick, const Event *>> reference;
    Tick drain_point = 0;
    std::size_t ref_head = 0;

    auto ref_sorted = [&] {
        std::stable_sort(reference.begin() + ref_head, reference.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
    };

    for (int round = 0; round < 200; ++round) {
        const int pushes = 1 + rng.below(50);
        for (int i = 0; i < pushes; ++i) {
            const Tick when = drain_point + rng.below(1000);
            storage.push_back(std::make_unique<TestEvent>());
            q.schedule(*storage.back(), when);
            reference.emplace_back(when, storage.back().get());
        }
        ref_sorted();
        const int pops = rng.below(static_cast<std::uint32_t>(
            reference.size() - ref_head + 1));
        for (int i = 0; i < pops; ++i) {
            ASSERT_FALSE(q.empty());
            const Event *got = q.pop();
            ASSERT_EQ(got, reference[ref_head].second);
            ASSERT_EQ(got->when(), reference[ref_head].first);
            ASSERT_GE(got->when(), drain_point);
            drain_point = got->when();
            ++ref_head;
        }
    }
    while (ref_head < reference.size()) {
        ASSERT_EQ(q.pop(), reference[ref_head].second);
        ++ref_head;
    }
    EXPECT_TRUE(q.empty());
}

TEST(Engine, AdvancesTime)
{
    Engine engine;
    Tick seen = 0;
    engine.schedule(100, [&] { seen = engine.now(); });
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(engine.now(), 100u);
}

TEST(Engine, EventsCanScheduleEvents)
{
    Engine engine;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            engine.schedule(10, chain);
    };
    engine.schedule(10, chain);
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(engine.now(), 50u);
}

TEST(Engine, RunLimitStopsAndAdvancesNow)
{
    Engine engine;
    bool late_fired = false;
    engine.schedule(10, [] {});
    engine.schedule(1000, [&] { late_fired = true; });
    EXPECT_EQ(engine.run(100), RunStatus::LimitHit);
    EXPECT_EQ(engine.lastRunStatus(), RunStatus::LimitHit);
    // A limit-hit run reports the cap as the current time.
    EXPECT_EQ(engine.now(), 100u);
    EXPECT_FALSE(late_fired);
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_TRUE(late_fired);
    EXPECT_EQ(engine.now(), 1000u);
}

TEST(Engine, StopRequestHonored)
{
    Engine engine;
    int fired = 0;
    engine.schedule(1, [&] {
        ++fired;
        engine.stop();
    });
    engine.schedule(2, [&] { ++fired; });
    EXPECT_EQ(engine.run(), RunStatus::Stopped);
    EXPECT_EQ(engine.lastRunStatus(), RunStatus::Stopped);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_EQ(fired, 2);
}

TEST(Engine, CountsEvents)
{
    Engine engine;
    for (int i = 0; i < 7; ++i)
        engine.schedule(i + 1, [] {});
    engine.run();
    EXPECT_EQ(engine.eventsExecuted(), 7u);
}

TEST(Engine, IntrusiveEventsFire)
{
    Engine engine;
    struct Counter
    {
        int fired = 0;
        void tick() { ++fired; }
    } counter;
    MemberEvent<Counter, &Counter::tick> ev(&counter);
    engine.schedule(ev, 5);
    EXPECT_TRUE(ev.scheduled());
    engine.run();
    EXPECT_EQ(counter.fired, 1);
    EXPECT_FALSE(ev.scheduled());
    // Intrusive events are reusable once they have fired.
    engine.schedule(ev, 5);
    engine.run();
    EXPECT_EQ(counter.fired, 2);
}

TEST(Engine, CallbackPoolRecyclesNodes)
{
    Engine engine;
    // Steady-state scheduling: one event in flight at a time. The pool
    // must allocate one slab and then stop growing.
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 10000)
            engine.schedule(1, chain);
    };
    engine.schedule(1, chain);
    engine.run();
    EXPECT_EQ(fired, 10000);
    const std::size_t allocated = engine.callbackPoolAllocated();
    EXPECT_GT(allocated, 0u);
    EXPECT_LE(engine.callbackPoolHighWater(), allocated);
    // Everything in flight has been returned.
    EXPECT_EQ(engine.callbackPoolFree(), allocated);
    EXPECT_GT(engine.callbackArenaBytes(), 0u);

    // Re-running the same load must not grow the arena: zero-allocation
    // steady state.
    fired = 0;
    engine.schedule(1, chain);
    engine.run();
    EXPECT_EQ(engine.callbackPoolAllocated(), allocated);
}

TEST(Engine, PoolHighWaterTracksBurst)
{
    Engine engine;
    for (int i = 0; i < 200; ++i)
        engine.schedule(1, [] {});
    EXPECT_GE(engine.callbackPoolHighWater(), 200u);
    engine.run();
    EXPECT_EQ(engine.callbackPoolFree(), engine.callbackPoolAllocated());
}

TEST(SmallFn, InlineCapturesDoNotAllocate)
{
    const std::uint64_t before = SmallFn::heapAllocations();
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    SmallFn fn([a, b, c, d]() mutable { a = b + c + d; });
    fn();
    EXPECT_EQ(SmallFn::heapAllocations(), before);
}

TEST(SmallFn, OversizeCapturesFallBackToHeap)
{
    const std::uint64_t before = SmallFn::heapAllocations();
    std::array<std::uint64_t, 32> big{};
    SmallFn fn([big] { (void)big; });
    fn();
    EXPECT_EQ(SmallFn::heapAllocations(), before + 1);
}

TEST(SmallFn, MoveTransfersOwnership)
{
    int fired = 0;
    SmallFn fn([&fired] { ++fired; });
    SmallFn moved = std::move(fn);
    EXPECT_FALSE(fn);
    EXPECT_TRUE(moved);
    moved();
    EXPECT_EQ(fired, 1);
}

TEST(Pcg32, DeterministicStreams)
{
    Pcg32 a(7), b(7), c(8);
    for (int i = 0; i < 100; ++i) {
        std::uint32_t va = a.next();
        EXPECT_EQ(va, b.next());
    }
    // Different seeds diverge (probabilistically certain).
    bool any_diff = false;
    Pcg32 a2(7);
    for (int i = 0; i < 100; ++i)
        any_diff |= a2.next() != c.next();
    EXPECT_TRUE(any_diff);
}

TEST(Pcg32, BelowRespectsBound)
{
    Pcg32 rng(123);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(1), 0u);
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Pcg32, UniformInUnitInterval)
{
    Pcg32 rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

} // namespace
} // namespace netcrafter::sim
