/**
 * @file
 * Property tests: the event queue agrees with reference models ordered
 * by (tick, insertion sequence), and by (tick, phase, sequence) once
 * wire-phase events, deschedules and clears join the mix, under
 * randomized workloads.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "src/sim/event_queue.hh"
#include "src/sim/random.hh"

namespace netcrafter::sim {
namespace {

class IdEvent : public Event
{
  public:
    explicit IdEvent(int id, std::vector<int> &fired)
        : id_(id), fired_(fired)
    {}

    void process() override { fired_.push_back(id_); }

  private:
    int id_;
    std::vector<int> &fired_;
};

TEST(EventQueueProperty, MatchesReferenceModel)
{
    Pcg32 rng(404);
    for (int trial = 0; trial < 20; ++trial) {
        EventQueue q;
        std::multimap<std::pair<Tick, std::uint64_t>, int> reference;
        std::uint64_t seq = 0;
        std::vector<int> fired;
        std::vector<std::unique_ptr<IdEvent>> storage;
        // The queue forbids scheduling before the last popped tick, so
        // new ticks are generated at or after the drain point. Spanning
        // many wheel revolutions exercises wheel<->heap migration.
        Tick drain_point = 0;

        int next_id = 0;
        // Interleave pushes and pops randomly.
        for (int op = 0; op < 2000; ++op) {
            if (q.empty() || rng.chance(0.6)) {
                const Tick when = drain_point + rng.below(1000);
                const int id = next_id++;
                storage.push_back(std::make_unique<IdEvent>(id, fired));
                q.schedule(*storage.back(), when);
                reference.emplace(std::make_pair(when, seq++), id);
            } else {
                Event *ev = q.pop();
                const Tick when = ev->when();
                ev->process();
                auto it = reference.begin();
                ASSERT_EQ(fired.back(), it->second);
                ASSERT_EQ(when, it->first.first);
                ASSERT_GE(when, drain_point);
                drain_point = when;
                reference.erase(it);
            }
        }
        while (!q.empty()) {
            q.pop()->process();
            auto it = reference.begin();
            ASSERT_EQ(fired.back(), it->second);
            reference.erase(it);
        }
        EXPECT_TRUE(reference.empty());
    }
}

TEST(EventQueueProperty, ClearEmptiesEverything)
{
    EventQueue q;
    std::vector<std::unique_ptr<IdEvent>> storage;
    std::vector<int> fired;
    for (int i = 0; i < 100; ++i) {
        storage.push_back(std::make_unique<IdEvent>(i, fired));
        q.schedule(*storage.back(), i);
    }
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    for (const auto &ev : storage)
        EXPECT_FALSE(ev->scheduled());
}

/** Reusable event recording its identity for the differential test. */
class SlotEvent : public Event
{
  public:
    void process() override {}
    int id = 0;
};

TEST(EventQueueProperty, DifferentialAgainstTickPhaseSeqReference)
{
    constexpr Tick kSlots = EventQueue::kWheelSlots;
    constexpr int kEvents = 256;
    Pcg32 rng(1303);
    for (int trial = 0; trial < 10; ++trial) {
        EventQueue q;
        std::vector<std::unique_ptr<SlotEvent>> events;
        for (int i = 0; i < kEvents; ++i) {
            events.push_back(std::make_unique<SlotEvent>());
            events.back()->id = i;
        }
        // Reference: (tick, phase, seq) -> event id.
        using Key = std::tuple<Tick, std::uint8_t, std::uint64_t>;
        std::map<Key, int> reference;
        std::vector<Key> keyOf(kEvents);
        std::uint64_t seq = 0;
        std::uint64_t scheduled = 0;
        Tick drain_point = 0;

        for (int op = 0; op < 20000; ++op) {
            const double dice = rng.uniform();
            if (dice < 0.55) {
                SlotEvent *ev = events[rng.below(kEvents)].get();
                if (ev->scheduled())
                    continue;
                // Delays cover several wheel revolutions, so both the
                // wheel and the heap and the migration between them are
                // exercised; a few far outliers sit in the heap long.
                Tick delay = rng.below(4 * kSlots + 1);
                if (rng.chance(0.01))
                    delay = 100 * kSlots + rng.below(10 * kSlots);
                const std::uint8_t phase =
                    rng.chance(0.3) ? kPhaseWire : kPhaseDefault;
                ev->setPhase(phase);
                const Tick when = drain_point + delay;
                q.schedule(*ev, when);
                ++scheduled;
                keyOf[ev->id] = Key{when, phase, seq++};
                reference.emplace(keyOf[ev->id], ev->id);
            } else if (dice < 0.9) {
                if (reference.empty()) {
                    ASSERT_TRUE(q.empty());
                    continue;
                }
                ASSERT_EQ(q.nextTick(), std::get<0>(reference.begin()->first));
                Event *ev = q.pop();
                const auto it = reference.begin();
                ASSERT_EQ(static_cast<SlotEvent *>(ev)->id, it->second);
                ASSERT_EQ(ev->when(), std::get<0>(it->first));
                ASSERT_FALSE(ev->scheduled());
                drain_point = ev->when();
                reference.erase(it);
            } else if (dice < 0.995) {
                SlotEvent *ev = events[rng.below(kEvents)].get();
                if (!ev->scheduled())
                    continue;
                q.deschedule(*ev);
                ASSERT_FALSE(ev->scheduled());
                ASSERT_EQ(reference.erase(keyOf[ev->id]), 1u);
            } else {
                q.clear();
                reference.clear();
                for (const auto &ev : events)
                    ASSERT_FALSE(ev->scheduled());
                drain_point = 0;
            }
            ASSERT_EQ(q.size(), reference.size());
            ASSERT_EQ(q.empty(), reference.empty());
            ASSERT_EQ(q.nearScheduled() + q.farScheduled(), scheduled);
        }
        while (!reference.empty()) {
            ASSERT_EQ(q.nextTick(), std::get<0>(reference.begin()->first));
            ASSERT_EQ(static_cast<SlotEvent *>(q.pop())->id,
                      reference.begin()->second);
            reference.erase(reference.begin());
        }
        EXPECT_TRUE(q.empty());
        // Both the wheel and the heap saw traffic.
        EXPECT_GT(q.nearScheduled(), 0u);
        EXPECT_GT(q.farScheduled(), 0u);
    }
}

} // namespace
} // namespace netcrafter::sim
