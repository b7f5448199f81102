/**
 * @file
 * The discrete-event queue at the heart of the simulator: a bucketed
 * near-future timing wheel backed by a binary heap for far-future
 * events.
 *
 * Almost every event a cycle-level model schedules lands within a few
 * hundred cycles of "now": links and switches wake at now+1, cache
 * lookups a handful of cycles out, the 30-cycle switch pipeline and the
 * 100-cycle L2 lookup and DRAM latencies a little further. The wheel
 * covers the next kWheelSlots ticks with O(1) push/pop FIFO buckets
 * and a 256-bit occupancy bitmap. Buckets are intrusive singly linked
 * lists threaded through the events themselves, so the wheel owns no
 * heap storage and scheduling never allocates. Rare long-delay events
 * (beyond the horizon) overflow into a comparison-ordered heap and
 * migrate into the wheel as its base advances.
 *
 * Ordering contract: events pop in ascending (tick, phase,
 * schedule-sequence) order — same-tick same-phase events fire in exact
 * insertion order, keeping component behaviour deterministic, and
 * wire-phase events (cross-cluster flit deliveries and credit returns,
 * see event.hh) fire before a tick's default-phase events regardless of
 * when they were inserted. The sharded engine relies on that: it
 * re-schedules wire arrivals at quantum barriers, in an order that may
 * differ from the serial engine's insertion order, and phased popping
 * plus the commutativity of same-tick wire events keeps execution
 * bit-identical. Migration preserves the contract: a tick's bucket only
 * becomes reachable for direct scheduling after every farther-scheduled
 * event for that tick has migrated in (in phase+sequence order), so
 * per-phase bucket appends stay sorted.
 *
 * Contract change vs. the old queue: scheduling strictly before the
 * last popped tick is no longer supported (the engine never did this —
 * it asserts `when >= now()`).
 */

#ifndef NETCRAFTER_SIM_EVENT_QUEUE_HH
#define NETCRAFTER_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/sim/event.hh"
#include "src/sim/logging.hh"
#include "src/sim/types.hh"

namespace netcrafter::sim {

/**
 * Timing-wheel event queue over intrusive Event objects. Events
 * scheduled for the same tick fire in insertion order (FIFO).
 */
class EventQueue
{
  public:
    /** Wheel horizon in ticks; a power of two and a multiple of 64. */
    static constexpr std::size_t kWheelSlots = 256;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Link @p ev into the queue to fire at absolute tick @p when. */
    void
    schedule(Event &ev, Tick when)
    {
        NC_ASSERT(!ev.scheduled_, "event scheduled twice");
        NC_ASSERT(when >= base_, "event scheduled before the queue's "
                                 "drain point: when=", when,
                  " base=", base_);
        ev.when_ = when;
        ev.seq_ = nextSeq_++;
        ev.scheduled_ = true;
        ++count_;
        if (when - base_ < kWheelSlots) {
            pushSlot(&ev);
            ++nearScheduled_;
        } else {
            heapPush(&ev);
            ++farScheduled_;
        }
    }

    /** True when no events remain. */
    bool empty() const { return count_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return count_; }

    /** Tick of the earliest pending event. Requires !empty(). */
    Tick
    nextTick() const
    {
        NC_ASSERT(count_ > 0, "nextTick() on empty event queue");
        if (wheelCount_ > 0)
            return base_ + firstOccupiedOffset();
        return heap_.front()->when_;
    }

    /**
     * Unlink and return the earliest event. Requires !empty(). The
     * returned event is no longer scheduled(); its when() gives the
     * firing tick.
     */
    Event *
    pop()
    {
        NC_ASSERT(count_ > 0, "pop() on empty event queue");
        if (wheelCount_ == 0)
            advanceTo(heap_.front()->when_);
        const Tick tick = base_ + firstOccupiedOffset();
        if (tick != base_)
            advanceTo(tick);

        const std::size_t s = slotOf(tick);
        Slot &slot = slots_[s];
        Event *ev = slot.wire.head != nullptr ? slot.wire.popFront()
                                               : slot.q.popFront();
        clearIfDrained(s);
        --wheelCount_;
        --count_;
        ev->scheduled_ = false;
        return ev;
    }

    /**
     * Unlink @p ev without firing it; the other events keep their
     * order. Linear in the size of the bucket (or heap) holding it, so
     * meant for owners tearing down with an event still pending.
     */
    void
    deschedule(Event &ev)
    {
        NC_ASSERT(ev.scheduled_, "deschedule of an unscheduled event");
        if (ev.when_ - base_ < kWheelSlots) {
            const std::size_t s = slotOf(ev.when_);
            Slot &slot = slots_[s];
            List &list = ev.phase_ == kPhaseWire ? slot.wire : slot.q;
            const bool queued = list.unlink(&ev);
            NC_ASSERT(queued, "scheduled event not queued");
            clearIfDrained(s);
            --wheelCount_;
        } else {
            auto it = std::find(heap_.begin(), heap_.end(), &ev);
            NC_ASSERT(it != heap_.end(), "scheduled event not queued");
            heap_.erase(it);
            std::make_heap(heap_.begin(), heap_.end(),
                           [](const Event *a, const Event *b) {
                               return before(b, a);
                           });
        }
        --count_;
        ev.scheduled_ = false;
    }

    /** Drop all pending events and reset the sequence counter. */
    void
    clear()
    {
        for (std::size_t w = 0; w < kWords; ++w) {
            for (std::uint64_t bits = occupied_[w]; bits != 0;
                 bits &= bits - 1) {
                Slot &slot = slots_[w * 64 + static_cast<std::size_t>(
                                                 std::countr_zero(bits))];
                slot.wire.unscheduleAll();
                slot.q.unscheduleAll();
            }
            occupied_[w] = 0;
        }
        for (Event *ev : heap_)
            ev->scheduled_ = false;
        heap_.clear();
        wheelCount_ = 0;
        count_ = 0;
        nextSeq_ = 0;
        base_ = 0;
    }

    /** Events that went straight into the wheel (near-future). */
    std::uint64_t nearScheduled() const { return nearScheduled_; }

    /** Events that overflowed into the far-future heap. */
    std::uint64_t farScheduled() const { return farScheduled_; }

  private:
    static_assert(kWheelSlots % 64 == 0 &&
                      (kWheelSlots & (kWheelSlots - 1)) == 0,
                  "wheel horizon must be a power-of-two multiple of 64");

    /** Occupancy bitmap words. */
    static constexpr std::size_t kWords = kWheelSlots / 64;

    /** Intrusive FIFO of events threaded through Event::next_. */
    struct List
    {
        Event *head = nullptr;
        Event *tail = nullptr;

        void
        pushBack(Event *ev)
        {
            ev->next_ = nullptr;
            if (tail != nullptr)
                tail->next_ = ev;
            else
                head = ev;
            tail = ev;
        }

        Event *
        popFront()
        {
            Event *ev = head;
            head = ev->next_;
            if (head == nullptr)
                tail = nullptr;
            return ev;
        }

        /** Unlink @p ev; false when it is not in this list. */
        bool
        unlink(Event *ev)
        {
            Event *prev = nullptr;
            for (Event *cur = head; cur != nullptr; cur = cur->next_) {
                if (cur != ev) {
                    prev = cur;
                    continue;
                }
                (prev != nullptr ? prev->next_ : head) = cur->next_;
                if (tail == cur)
                    tail = prev;
                return true;
            }
            return false;
        }

        void
        unscheduleAll()
        {
            while (head != nullptr)
                popFront()->scheduled_ = false;
        }
    };

    struct Slot
    {
        /** Wire-phase FIFO bucket, drained before q (see event.hh). */
        List wire;
        /** Default-phase FIFO bucket. */
        List q;
    };

    static std::size_t
    slotOf(Tick when)
    {
        return static_cast<std::size_t>(when) & (kWheelSlots - 1);
    }

    void
    pushSlot(Event *ev)
    {
        const std::size_t s = slotOf(ev->when_);
        if (ev->phase_ == kPhaseWire)
            slots_[s].wire.pushBack(ev);
        else
            slots_[s].q.pushBack(ev);
        occupied_[s / 64] |= std::uint64_t{1} << (s % 64);
        ++wheelCount_;
    }

    /** Clear slot @p s's occupancy bit once both buckets drained. */
    void
    clearIfDrained(std::size_t s)
    {
        const Slot &slot = slots_[s];
        if (slot.wire.head == nullptr && slot.q.head == nullptr)
            occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
    }

    /**
     * Offset from base_ of the earliest occupied slot. Requires at
     * least one occupied slot. Scans the bitmap words starting at
     * base_'s slot and wrapping around the wheel.
     */
    std::size_t
    firstOccupiedOffset() const
    {
        const std::size_t start = slotOf(base_);
        const std::size_t w0 = start / 64;
        const unsigned bit = static_cast<unsigned>(start % 64);
        // Bits at or after base_'s slot within its own word.
        const std::uint64_t head = occupied_[w0] >> bit;
        if (head != 0)
            return static_cast<std::size_t>(std::countr_zero(head));
        for (std::size_t i = 1; i <= kWords; ++i) {
            const std::size_t w = (w0 + i) % kWords;
            if (occupied_[w] != 0) {
                const std::size_t s =
                    w * 64 +
                    static_cast<std::size_t>(std::countr_zero(occupied_[w]));
                return (s - start) & (kWheelSlots - 1);
            }
        }
        NC_PANIC("event wheel occupancy lost");
    }

    /**
     * Advance the wheel base to @p tick (the next tick to drain) and
     * migrate far-future events that entered the extended horizon.
     * Newly covered ticks had empty buckets, and the heap pops in
     * (tick, phase, seq) order, so per-bucket FIFO order stays exact.
     */
    void
    advanceTo(Tick tick)
    {
        base_ = tick;
        while (!heap_.empty() && heap_.front()->when_ - base_ < kWheelSlots) {
            pushSlot(heapPop());
        }
    }

    static bool
    before(const Event *a, const Event *b)
    {
        if (a->when_ != b->when_)
            return a->when_ < b->when_;
        if (a->phase_ != b->phase_)
            return a->phase_ < b->phase_;
        return a->seq_ < b->seq_;
    }

    void
    heapPush(Event *ev)
    {
        heap_.push_back(ev);
        std::size_t i = heap_.size() - 1;
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!before(heap_[i], heap_[parent]))
                break;
            std::swap(heap_[i], heap_[parent]);
            i = parent;
        }
    }

    Event *
    heapPop()
    {
        Event *top = heap_.front();
        heap_.front() = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        std::size_t i = 0;
        for (;;) {
            std::size_t l = 2 * i + 1;
            std::size_t r = 2 * i + 2;
            std::size_t best = i;
            if (l < n && before(heap_[l], heap_[best]))
                best = l;
            if (r < n && before(heap_[r], heap_[best]))
                best = r;
            if (best == i)
                break;
            std::swap(heap_[i], heap_[best]);
            i = best;
        }
        return top;
    }

    Slot slots_[kWheelSlots];
    std::uint64_t occupied_[kWords] = {};
    Tick base_ = 0;
    std::size_t wheelCount_ = 0;

    std::vector<Event *> heap_;
    std::uint64_t nextSeq_ = 0;
    std::size_t count_ = 0;

    std::uint64_t nearScheduled_ = 0;
    std::uint64_t farScheduled_ = 0;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_EVENT_QUEUE_HH
