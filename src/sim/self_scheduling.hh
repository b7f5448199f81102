/**
 * @file
 * SelfScheduling: the "wake me once per cycle" pattern shared by the
 * link, switch, RDMA, wire-channel and NetCrafter-controller models.
 * Each of these components sleeps when idle and is woken by buffer
 * hooks; a wake schedules the component's handler one cycle out unless
 * a wake is already pending, so N hook invocations in a cycle cost one
 * event.
 */

#ifndef NETCRAFTER_SIM_SELF_SCHEDULING_HH
#define NETCRAFTER_SIM_SELF_SCHEDULING_HH

#include "src/sim/engine.hh"

namespace netcrafter::sim {

/**
 * Idempotent next-cycle wake-up for a component handler.
 *
 * The handler acknowledges the wake by calling clearPending() — at its
 * start in the common case, or after any "already ran this tick" guard
 * for components that can also be woken through long-delay events (the
 * switch). Clearing inside the handler rather than at fire time keeps
 * a component's wake accounting exact when stale wakes and fresh
 * notifies interleave on the same tick.
 *
 * The wake is an intrusive MemberEvent owned by this object, so a
 * notify never allocates and never goes through the one-shot pool. One
 * case needs a second in-flight wake: a handler run directly (the
 * switch's long-delay wake) acknowledges the pending wake early and
 * re-notifies while that wake is still queued for the current tick.
 * The stale wake must still fire — it takes a sequence slot and counts
 * as an executed event — so the new wake falls back to a pooled
 * one-shot, exactly what every wake used to be.
 *
 *   class Link {
 *     SelfScheduling<Link, &Link::transfer> wake_;
 *     void transfer() { wake_.clearPending(); ... }
 *   };
 */
template <typename T, void (T::*Handler)()>
class SelfScheduling
{
  public:
    SelfScheduling(Engine &engine, T *obj)
        : engine_(engine), obj_(obj), event_(obj)
    {}

    SelfScheduling(const SelfScheduling &) = delete;
    SelfScheduling &operator=(const SelfScheduling &) = delete;

    /** Unlink a still-queued wake: the engine outlives its components. */
    ~SelfScheduling()
    {
        if (event_.scheduled())
            engine_.deschedule(event_);
    }

    /** Schedule the handler at now+1 unless a wake is already pending. */
    void
    notify()
    {
        if (pending_)
            return;
        pending_ = true;
        if (!event_.scheduled()) {
            engine_.schedule(event_, 1);
            return;
        }
        T *obj = obj_;
        engine_.schedule(1, [obj] { (obj->*Handler)(); });
    }

    /** Handler-side acknowledgement that the wake was consumed. */
    void clearPending() { pending_ = false; }

    /** True while a wake is scheduled but not yet acknowledged. */
    bool pending() const { return pending_; }

  private:
    Engine &engine_;
    T *obj_;
    MemberEvent<T, Handler> event_;
    bool pending_ = false;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_SELF_SCHEDULING_HH
