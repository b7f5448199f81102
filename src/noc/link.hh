/**
 * @file
 * A unidirectional, bandwidth-limited link moving flits from a source
 * buffer to a sink buffer. Bandwidth is expressed as flits per core cycle
 * (at 1 GHz and 16B flits: 16 GB/s = 1 flit/cycle, 128 GB/s = 8).
 */

#ifndef NETCRAFTER_NOC_LINK_HH
#define NETCRAFTER_NOC_LINK_HH

#include <cstdint>
#include <functional>
#include <string>

#include "src/noc/flit_buffer.hh"
#include "src/sim/self_scheduling.hh"
#include "src/sim/sim_object.hh"
#include "src/stats/stats.hh"

namespace netcrafter::noc {

/**
 * Link between two flit buffers. Each cycle the link moves up to
 * `flitsPerCycle` flits from source to sink, stalling (and thereby
 * propagating back-pressure) when the sink is full. The link sleeps when
 * idle and is woken by the source buffer's push hook.
 */
class Link : public sim::SimObject
{
  public:
    Link(sim::Engine &engine, std::string name, FlitBuffer &source,
         FlitBuffer &sink, std::uint32_t flits_per_cycle);

    /** Wake the link; schedules a transfer event if none is pending. */
    void notify();

    /** Flits transferred over the lifetime of the link. */
    std::uint64_t flitsTransferred() const { return flitsTransferred_; }

    /** Wire bytes transferred (flits x capacity). */
    std::uint64_t bytesTransferred() const { return bytesTransferred_; }

    /** Useful (non-padded) bytes transferred. */
    std::uint64_t usefulBytesTransferred() const
    {
        return usefulBytesTransferred_;
    }

    /** Cycles in which at least one flit moved. */
    std::uint64_t busyCycles() const { return busyCycles_; }

    /** Peak flits/cycle capacity. */
    std::uint32_t flitsPerCycle() const { return flitsPerCycle_; }

    /**
     * Utilization over [0, now]: flits moved / (cycles x capacity).
     * This is the quantity plotted in Figure 4.
     */
    double utilization() const;

    /** First tick at which the link did any work (0 if never). */
    Tick firstBusyTick() const { return firstBusyTick_; }

    /** Last tick at which the link did any work. */
    Tick lastBusyTick() const { return lastBusyTick_; }

    /** Observe every flit crossing the link (traffic monitors). */
    void setObserver(std::function<void(const Flit &)> fn)
    {
        observer_ = std::move(fn);
    }

  private:
    void transfer();

    FlitBuffer &source_;
    FlitBuffer &sink_;
    std::uint32_t flitsPerCycle_;
    sim::SelfScheduling<Link, &Link::transfer> wake_;

    std::function<void(const Flit &)> observer_;
    std::uint64_t flitsTransferred_ = 0;
    std::uint64_t bytesTransferred_ = 0;
    std::uint64_t usefulBytesTransferred_ = 0;
    std::uint64_t busyCycles_ = 0;
    Tick firstBusyTick_ = 0;
    Tick lastBusyTick_ = 0;
    bool everBusy_ = false;
};

} // namespace netcrafter::noc

#endif // NETCRAFTER_NOC_LINK_HH
