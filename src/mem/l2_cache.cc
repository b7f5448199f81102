#include "src/mem/l2_cache.hh"

#include <algorithm>

#include "src/obs/trace_buffer.hh"

namespace netcrafter::mem {

L2Cache::L2Cache(sim::Engine &engine, std::string name,
                 const L2Params &params, Dram &dram)
    : SimObject(engine, std::move(name)), params_(params),
      tags_(params.sizeBytes, params.assoc, kCacheLineBytes,
            kCacheLineBytes),
      dram_(dram), mshr_(params.mshrEntries),
      bankNextFree_(params.banks, 0)
{
    traceLane_ = obs::internLane(engine, this->name());
}

Tick
L2Cache::bankReadyTime(Addr line)
{
    const std::size_t bank =
        (line / kCacheLineBytes) % bankNextFree_.size();
    const Tick start = std::max(now(), bankNextFree_[bank]);
    // Banks are pipelined: one new access per cycle each.
    bankNextFree_[bank] = start + 1;
    return start;
}

void
L2Cache::read(Addr line, Callback done)
{
    start(line, false, std::move(done));
}

void
L2Cache::write(Addr line, Callback done)
{
    start(line, true, std::move(done));
}

void
L2Cache::start(Addr line, bool is_write, Callback done)
{
    ++accesses_;
    obs::tracepoint(engine(), obs::TraceLevel::Full,
                    obs::TraceKind::PktStage, obs::TraceStage::L2Lookup,
                    traceLane_, line, is_write ? 1 : 0);
    const Tick ready = bankReadyTime(line) + params_.lookupLatency;

    if (tags_.present(line)) {
        ++hits_;
        tags_.touch(line);
        if (is_write)
            tags_.markDirty(line);
        engine().scheduleAbs(ready, std::move(done));
        return;
    }

    ++misses_;
    obs::tracepoint(engine(), obs::TraceLevel::Full,
                    obs::TraceKind::PktStage, obs::TraceStage::L2Miss,
                    traceLane_, line, is_write ? 1 : 0);
    Waiter waiter{is_write, std::move(done)};
    if (mshr_.outstanding(line)) {
        mshr_.merge(line, std::move(waiter));
        return;
    }
    if (mshr_.full()) {
        ++mshrStalls_;
        parked_.push_back(Parked{line, std::move(waiter)});
        return;
    }
    mshr_.allocate(line, std::move(waiter));
    // Fetch the line from DRAM after the (pipelined) lookup determined
    // the miss.
    engine().scheduleAbs(ready, [this, line] {
        dram_.access(kCacheLineBytes,
                     [this, line] { finishFill(line); });
    });
}

void
L2Cache::finishFill(Addr line)
{
    // A parked access for the same line may exist; it will hit after the
    // fill when retried.
    Eviction ev = tags_.fill(line, fullMask(1));
    if (ev.valid && ev.dirty) {
        ++writebacks_;
        dram_.access(kCacheLineBytes, nullptr);
    }
    auto waiters = mshr_.release(line);
    for (auto &w : waiters) {
        if (w.isWrite)
            tags_.markDirty(line);
        w.done();
    }
    mshr_.recycle(std::move(waiters));
    drainParked();
}

void
L2Cache::drainParked()
{
    // Replay parked accesses now that MSHR space freed. Replaying via
    // start() re-checks tags (the fill may have turned them into hits).
    std::size_t n = parked_.size();
    while (n-- > 0 && !parked_.empty()) {
        if (mshr_.full())
            break;
        Parked p = std::move(parked_.front());
        parked_.pop_front();
        start(p.line, p.waiter.isWrite, std::move(p.waiter.done));
    }
}

} // namespace netcrafter::mem
