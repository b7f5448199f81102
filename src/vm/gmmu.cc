#include "src/vm/gmmu.hh"

#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"

namespace netcrafter::vm {

PageWalkCache::Entry *
PageWalkCache::find(Addr k)
{
    for (Entry &e : lines_) {
        if (e.key == k)
            return &e;
    }
    return nullptr;
}

int
PageWalkCache::deepestMatch(Addr vaddr)
{
    ++lookups_;
    for (int level = kPageTableLevels - 1; level >= 1; --level) {
        if (Entry *e = find(key(level, vaddr))) {
            ++hits_;
            // Refresh recency: a matching entry is hot.
            e->lastUse = ++useClock_;
            return level;
        }
    }
    return 0;
}

void
PageWalkCache::insert(int level, Addr vaddr)
{
    const Addr k = key(level, vaddr);
    if (Entry *e = find(k)) {
        e->lastUse = ++useClock_;
        return;
    }
    if (lines_.size() < entries_) {
        lines_.push_back(Entry{k, ++useClock_});
        return;
    }
    if (lines_.empty())
        return;
    Entry *victim = &lines_.front();
    for (Entry &e : lines_) {
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    *victim = Entry{k, ++useClock_};
}

Gmmu::Gmmu(sim::Engine &engine, std::string name,
           const GmmuParams &params, const PageTable &page_table,
           PteFetchFn fetch)
    : SimObject(engine, std::move(name)), params_(params),
      pageTable_(page_table), fetch_(std::move(fetch)),
      pwc_(params.pwcEntries)
{
    NC_ASSERT(fetch_ != nullptr, "GMMU needs a PTE fetch path");
    traceLane_ = obs::internLane(engine, this->name());
}

void
Gmmu::walk(Addr vpn, Callback done)
{
    if (!waiters_.add(vpn, std::move(done)))
        return;
    queued_.push_back(vpn);
    ++walksStarted_;
    obs::tracepoint(engine(), obs::TraceLevel::Links,
                    obs::TraceKind::PktStage, obs::TraceStage::WalkStart,
                    traceLane_, vpn);
    beginNextWalk();
}

void
Gmmu::beginNextWalk()
{
    if (activeWalkers_ >= params_.walkers || queued_.empty())
        return;
    const Addr vpn = queued_.front();
    queued_.pop_front();
    ++activeWalkers_;
    // PWC lookup determines where the walk starts.
    schedule(params_.pwcLatency, [this, vpn] {
        const Addr vaddr = vpn * kPageBytes;
        const int deepest = pwc_.deepestMatch(vaddr);
        runWalk(vpn, deepest + 1);
    });
}

void
Gmmu::runWalk(Addr vpn, int level)
{
    const Addr vaddr = vpn * kPageBytes;
    if (level > kPageTableLevels) {
        finishWalk(vpn);
        return;
    }
    ++pteFetches_;
    const WalkStep step = pageTable_.step(level, vaddr);
    fetch_(step, [this, vpn, level] {
        const Addr vaddr = vpn * kPageBytes;
        if (level < kPageTableLevels)
            pwc_.insert(level, vaddr);
        runWalk(vpn, level + 1);
    });
}

void
Gmmu::finishWalk(Addr vpn)
{
    ++walksCompleted_;
    obs::tracepoint(engine(), obs::TraceLevel::Links,
                    obs::TraceKind::PktStage, obs::TraceStage::WalkEnd,
                    traceLane_, vpn);
    Translation t;
    t.owner = pageTable_.dataOwner(vpn * kPageBytes);
    auto waiters = waiters_.take(vpn);
    NC_ASSERT(!waiters.empty(), "walk finished with no waiters");
    NC_ASSERT(activeWalkers_ > 0, "walker underflow");
    --activeWalkers_;
    while (!waiters.empty()) {
        Callback done = waiters_.pop(waiters);
        done(t);
    }
    beginNextWalk();
}

} // namespace netcrafter::vm
