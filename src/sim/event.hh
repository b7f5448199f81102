/**
 * @file
 * Intrusive simulation events (gem5-style). A component owns its Event
 * objects statically — scheduling one links it into the event queue
 * without any allocation. One-shot dynamic callbacks instead go through
 * Engine::schedule(Tick, EventFn), which recycles pooled event nodes.
 */

#ifndef NETCRAFTER_SIM_EVENT_HH
#define NETCRAFTER_SIM_EVENT_HH

#include <cstdint>

#include "src/sim/types.hh"

namespace netcrafter::sim {

class EventQueue;

/**
 * Execution phase of an event within its tick. Same-tick events pop in
 * ascending (phase, sequence) order; the wire phase exists so that
 * cross-shard deliveries of the sharded engine (see sharded_engine.hh)
 * can be re-scheduled at a synchronization barrier without perturbing
 * the order the serial engine would have executed them in: wire-phase
 * events at one tick only touch disjoint channel state and therefore
 * commute with each other.
 */
enum : std::uint8_t
{
    /** Inter-cluster wire arrivals (flit deliveries, credit returns). */
    kPhaseWire = 0,
    /** Everything else. */
    kPhaseDefault = 1,
};

/**
 * Base class of everything the event queue can hold. The queue links
 * events intrusively: an Event must not be destroyed or rescheduled
 * while scheduled() is true.
 */
class Event
{
  public:
    Event() = default;

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when the event's tick is reached. */
    virtual void process() = 0;

    /** True while the event sits in an event queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick the event fires (or last fired) at. */
    Tick when() const { return when_; }

    /** Intra-tick execution phase (kPhaseWire or kPhaseDefault). */
    std::uint8_t phase() const { return phase_; }

    /**
     * Set the intra-tick phase. Must not be called while scheduled.
     * Wire-phase events must always be scheduled for a strictly future
     * tick: a wire event inserted at the tick currently draining would
     * fire after that tick's default-phase events.
     */
    void
    setPhase(std::uint8_t phase)
    {
        phase_ = phase;
    }

  protected:
    ~Event() = default;

  private:
    friend class EventQueue;

    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    /** Next event in the same wheel bucket (intrusive FIFO link). */
    Event *next_ = nullptr;
    std::uint8_t phase_ = kPhaseDefault;
    bool scheduled_ = false;
};

/**
 * An event that calls a member function on its owner — the common case
 * for statically owned events, with no indirection beyond the vtable:
 *
 *   struct Link { MemberEvent<Link, &Link::transfer> transferEvent_; };
 */
template <typename T, void (T::*Handler)()>
class MemberEvent : public Event
{
  public:
    explicit MemberEvent(T *obj) : obj_(obj) {}

    void process() override { (obj_->*Handler)(); }

  private:
    T *obj_;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_EVENT_HH
