#include "src/vm/tlb.hh"

#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"

namespace netcrafter::vm {

Tlb::Tlb(sim::Engine &engine, std::string name, const TlbParams &params,
         MissHandler miss_handler)
    : SimObject(engine, std::move(name)), params_(params),
      missHandler_(std::move(miss_handler)),
      numSets_(params.entries / params.assoc), keys_(params.entries),
      translations_(params.entries), lastUse_(params.entries)
{
    NC_ASSERT(params_.assoc > 0 && params_.entries % params_.assoc == 0,
              "TLB entries must divide evenly into ways");
    NC_ASSERT(numSets_ > 0, "TLB must have at least one set");
    NC_ASSERT(missHandler_ != nullptr, "TLB needs a miss handler");
    traceLane_ = obs::internLane(engine, this->name());
}

std::size_t
Tlb::findWay(Addr vpn) const
{
    const std::size_t base = setBase(vpn);
    const Addr key = vpn + 1;
    for (std::size_t w = base; w < base + params_.assoc; ++w) {
        if (keys_[w] == key)
            return w;
    }
    return kNoWay;
}

bool
Tlb::contains(Addr vpn) const
{
    return findWay(vpn) != kNoWay;
}

void
Tlb::access(Addr vpn, Callback done)
{
    ++accesses_;
    obs::tracepoint(engine(), obs::TraceLevel::Full,
                    obs::TraceKind::PktStage, obs::TraceStage::TlbLookup,
                    traceLane_, vpn);
    if (const std::size_t way = findWay(vpn); way != kNoWay) {
        ++hits_;
        lastUse_[way] = ++useClock_;
        pendingHits_.push_back(Hit{std::move(done), translations_[way]});
        schedule(params_.lookupLatency, [this] { completeHit(); });
        return;
    }

    ++misses_;
    obs::tracepoint(engine(), obs::TraceLevel::Full,
                    obs::TraceKind::PktStage, obs::TraceStage::TlbMiss,
                    traceLane_, vpn);
    if (!pendingByVpn_.add(vpn, std::move(done)))
        return; // merged onto the outstanding miss

    if (activeBelow_ < params_.mshrEntries) {
        ++activeBelow_;
        schedule(params_.lookupLatency, [this, vpn] { startMiss(vpn); });
    } else {
        // All MSHR slots busy: the primary miss waits its turn.
        ++mshrQueued_;
        queuedMisses_.push_back(vpn);
    }
}

void
Tlb::completeHit()
{
    Hit hit = std::move(pendingHits_.front());
    pendingHits_.pop_front();
    hit.done(hit.t);
}

void
Tlb::startMiss(Addr vpn)
{
    missHandler_(vpn,
                 [this, vpn](Translation t) { finishMiss(vpn, t); });
}

void
Tlb::finishMiss(Addr vpn, Translation t)
{
    insert(vpn, t);
    auto waiters = pendingByVpn_.take(vpn);
    NC_ASSERT(!waiters.empty(), "miss finished with no waiters");

    NC_ASSERT(activeBelow_ > 0, "TLB MSHR underflow");
    --activeBelow_;
    if (!queuedMisses_.empty()) {
        const Addr next = queuedMisses_.front();
        queuedMisses_.pop_front();
        ++activeBelow_;
        schedule(1, [this, next] { startMiss(next); });
    }

    while (!waiters.empty()) {
        Callback done = pendingByVpn_.pop(waiters);
        done(t);
    }
}

void
Tlb::insert(Addr vpn, Translation t)
{
    NC_ASSERT(vpn != kAddrInvalid, "vpn + 1 collides with the empty key");
    ++useClock_;
    std::size_t victim = findWay(vpn);
    if (victim == kNoWay) {
        // The first empty way, else the least recently used one.
        const std::size_t base = setBase(vpn);
        victim = base;
        for (std::size_t w = base; w < base + params_.assoc; ++w) {
            if (keys_[w] == 0) {
                victim = w;
                break;
            }
            if (lastUse_[w] < lastUse_[victim])
                victim = w;
        }
        keys_[victim] = vpn + 1;
    }
    translations_[victim] = t;
    lastUse_[victim] = useClock_;
}

} // namespace netcrafter::vm
