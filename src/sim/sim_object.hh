/**
 * @file
 * Base class for named simulation components.
 */

#ifndef NETCRAFTER_SIM_SIM_OBJECT_HH
#define NETCRAFTER_SIM_SIM_OBJECT_HH

#include <string>
#include <typeinfo>
#include <utility>

#include "src/sim/engine.hh"

namespace netcrafter::sim {

/**
 * A named component attached to an engine. Provides the scheduling
 * helpers every model needs and a hierarchical name for diagnostics.
 */
class SimObject
{
  public:
    SimObject(Engine &engine, std::string name)
        : engine_(engine), name_(std::move(name))
    {
        engine_.attachObject(name_);
    }

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    /** Hierarchical instance name, e.g. "gpu1.l2cache". */
    const std::string &name() const { return name_; }

    /** The engine this object is attached to. */
    Engine &engine() const { return engine_; }

    /** Current simulated time. */
    Tick now() const { return engine_.now(); }

    /**
     * Ledger kind of the callbacks this object schedules:
     * "<Class>::callback" for its most-derived class. Resolved on first
     * use, after construction, by the thread running this object's
     * engine; a component that schedules onto other shards' engines
     * names its kind with callbackEventKind<T>() instead.
     */
    EventKind
    eventKind() const
    {
        if (kind_ == kUnattributed)
            kind_ = callbackEventKind(typeid(*this));
        return kind_;
    }

  protected:
    /** Schedule a member callback @p delay cycles from now. */
    void
    schedule(Tick delay, EventFn fn)
    {
        engine_.schedule(delay, std::move(fn), eventKind());
    }

    /** Schedule a member callback at absolute tick @p when. */
    void
    scheduleAbs(Tick when, EventFn fn)
    {
        engine_.scheduleAbs(when, std::move(fn), eventKind());
    }

  private:
    Engine &engine_;
    std::string name_;
    mutable EventKind kind_ = kUnattributed;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_SIM_OBJECT_HH
