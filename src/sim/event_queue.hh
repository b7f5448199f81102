/**
 * @file
 * The discrete-event queue at the heart of the simulator: a bucketed
 * near-future timing wheel backed by a binary heap for far-future
 * events.
 *
 * Almost every event a cycle-level model schedules lands within a few
 * cycles of "now" (links and switches wake at now+1, cache lookups a
 * handful of cycles out), so the wheel covers the next kWheelSlots
 * ticks with O(1) push/pop FIFO buckets and a 64-bit occupancy bitmap.
 * Rare long-delay events (DRAM latency, switch pipeline wakeups beyond
 * the horizon) overflow into a comparison-ordered heap and migrate
 * into the wheel as its base advances.
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
    /** Wheel horizon in ticks; must be a power of two. */
    static constexpr std::size_t kWheelSlots = 64;

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

        Slot &slot = slots_[slotOf(tick)];
        Event *ev;
        if (slot.wireHead < slot.wire.size())
            ev = slot.wire[slot.wireHead++];
        else
            ev = slot.q[slot.head++];
        resetIfDrained(slotOf(tick));
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
            Slot &slot = slots_[slotOf(ev.when_)];
            auto &bucket = ev.phase_ == kPhaseWire ? slot.wire : slot.q;
            const std::size_t head =
                ev.phase_ == kPhaseWire ? slot.wireHead : slot.head;
            auto it = std::find(bucket.begin() + head, bucket.end(), &ev);
            NC_ASSERT(it != bucket.end(), "scheduled event not queued");
            bucket.erase(it);
            resetIfDrained(slotOf(ev.when_));
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
        for (auto &slot : slots_) {
            for (std::size_t i = slot.wireHead; i < slot.wire.size();
                 ++i)
                slot.wire[i]->scheduled_ = false;
            slot.wire.clear();
            slot.wireHead = 0;
            for (std::size_t i = slot.head; i < slot.q.size(); ++i)
                slot.q[i]->scheduled_ = false;
            slot.q.clear();
            slot.head = 0;
        }
        for (Event *ev : heap_)
            ev->scheduled_ = false;
        heap_.clear();
        occupied_ = 0;
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
    struct Slot
    {
        /** Wire-phase FIFO bucket, drained before q (see event.hh). */
        std::vector<Event *> wire;
        std::size_t wireHead = 0;
        /** Default-phase FIFO bucket: push_back appends, head fronts. */
        std::vector<Event *> q;
        std::size_t head = 0;
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
            slots_[s].wire.push_back(ev);
        else
            slots_[s].q.push_back(ev);
        occupied_ |= std::uint64_t{1} << s;
        ++wheelCount_;
    }

    /** Recycle slot @p s and clear its occupancy bit once drained. */
    void
    resetIfDrained(std::size_t s)
    {
        Slot &slot = slots_[s];
        if (slot.wireHead != slot.wire.size() || slot.head != slot.q.size())
            return;
        slot.wire.clear();
        slot.wireHead = 0;
        slot.q.clear();
        slot.head = 0;
        occupied_ &= ~(std::uint64_t{1} << s);
    }

    /** Offset from base_ of the earliest occupied slot. */
    std::size_t
    firstOccupiedOffset() const
    {
        // Rotate the bitmap so base_'s slot is bit 0; the lowest set
        // bit is then the distance to the earliest pending tick.
        const std::uint64_t rotated =
            std::rotr(occupied_, static_cast<int>(slotOf(base_)));
        return static_cast<std::size_t>(std::countr_zero(rotated));
    }

    /**
     * Advance the wheel base to @p tick (the next tick to drain) and
     * migrate far-future events that entered the extended horizon.
     * Newly covered ticks had empty buckets, and the heap pops in
     * (tick, seq) order, so per-bucket FIFO order stays exact.
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
    std::uint64_t occupied_ = 0;
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
