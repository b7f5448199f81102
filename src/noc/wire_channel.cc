#include "src/noc/wire_channel.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"

namespace netcrafter::noc {

WireChannel::WireChannel(sim::Engine &src_engine,
                         sim::Engine &dst_engine, std::string name,
                         FlitBuffer &source, FlitBuffer &sink,
                         std::uint32_t flits_per_cycle, Tick latency,
                         unsigned src_shard, unsigned dst_shard)
    : SimObject(src_engine, std::move(name)), srcEngine_(src_engine),
      dstEngine_(dst_engine), source_(source), sink_(sink),
      flitsPerCycle_(flits_per_cycle), latency_(latency),
      srcShard_(src_shard), dstShard_(dst_shard),
      credits_(sink.capacity()), wake_(src_engine, this)
{
    NC_ASSERT(flitsPerCycle_ > 0, "wire channel needs positive bandwidth");
    NC_ASSERT(latency_ >= 1, "wire channel latency must be >= 1 cycle");
    NC_ASSERT(!crossShard() || &src_engine != &dst_engine,
              "cross-shard endpoints must use distinct engines");
    traceLane_ = obs::internLane(src_engine, this->name());
    source_.setOnPush([this] { notify(); });
    // The sink's pop hook belongs to this channel: every freed slot is
    // a credit heading back to the egress side. The sink's push hook
    // belongs to the sink's consumer (the switch behind it).
    sink_.setOnPop([this] { onSinkPop(); });
}

void
WireChannel::notify()
{
    wake_.notify();
}

void
WireChannel::pump()
{
    wake_.clearPending();
    std::uint32_t moved = 0;
    while (moved < flitsPerCycle_ && !source_.empty() && credits_ > 0) {
        FlitPtr flit = source_.pop();
        --credits_;
        bytesTransferred_ += flit->capacity;
        usefulBytesTransferred_ += flit->usedBytes();
        ++flitsTransferred_;
        ++moved;
        if (observer_)
            observer_(*flit);
        obs::tracepoint(
            srcEngine_, obs::TraceLevel::Links, obs::TraceKind::FlitXfer,
            obs::TraceStage::WireDepart, traceLane_,
            flit->pkt != nullptr ? flit->pkt->id : 0,
            obs::packFlitBytes(flit->capacity, flit->usedBytes()),
            obs::packFlitSeq(
                static_cast<std::uint32_t>(flit->stitched.size()),
                flit->seq));
        ship(std::move(flit), now() + latency_);
    }
    if (moved > 0) {
        ++busyCycles_;
        if (!everBusy_) {
            everBusy_ = true;
            firstBusyTick_ = now();
        }
        lastBusyTick_ = now();
    }
    // Keep draining while flits and credits remain; an empty credit
    // pool wakes us again via creditArrive().
    if (!source_.empty() && credits_ > 0)
        notify();
}

void
WireChannel::ship(FlitPtr flit, Tick arrival)
{
    if (!crossShard()) {
        srcEngine_.scheduleWireAbs(
            arrival,
            [this, f = std::move(flit)]() mutable {
                deliver(std::move(f));
            },
            sim::callbackEventKind<WireChannel>());
        return;
    }

    // Snapshot by value: the pooled flit and packets stay on this
    // (the source) thread and their handles drop right here.
    NC_ASSERT(flit->pkt != nullptr, "wire flit without a parent packet");
    WireFlit &wire = flitOutbox_.emplace_back();
    wire.arrival = arrival;
    wire.pkt = *flit->pkt;
    wire.seq = flit->seq;
    wire.numFlits = flit->numFlits;
    wire.occupiedBytes = flit->occupiedBytes;
    wire.capacity = flit->capacity;
    wire.pooledOnce = flit->pooledOnce;
    wire.stitched.reserve(flit->stitched.size());
    for (const StitchedPiece &piece : flit->stitched) {
        wire.stitched.push_back(WirePiece{*piece.pkt, piece.bytes,
                                          piece.seq, piece.numFlits,
                                          piece.wholePacket});
    }
}

void
WireChannel::deliver(FlitPtr flit)
{
    obs::tracepoint(
        dstEngine_, obs::TraceLevel::Links, obs::TraceKind::FlitXfer,
        obs::TraceStage::WireArrive, traceLane_,
        flit->pkt != nullptr ? flit->pkt->id : 0,
        obs::packFlitBytes(flit->capacity, flit->usedBytes()),
        obs::packFlitSeq(
            static_cast<std::uint32_t>(flit->stitched.size()),
            flit->seq));
    ++flitsDelivered_;
    bytesDelivered_ += flit->capacity;
    const bool pushed = sink_.tryPush(std::move(flit));
    NC_ASSERT(pushed, "wire channel overran its credit window");
}

void
WireChannel::creditArrive()
{
    ++credits_;
    if (!source_.empty())
        notify();
}

void
WireChannel::onSinkPop()
{
    const Tick arrival = dstEngine_.now() + latency_;
    if (!crossShard()) {
        dstEngine_.scheduleWireAbs(
            arrival, [this] { creditArrive(); },
            sim::callbackEventKind<WireChannel>());
        return;
    }
    creditOutbox_.push_back(arrival);
}

void
WireChannel::sealExports()
{
    // Coordinator-only: both endpoints are parked at the barrier, so
    // moving outbox -> sealed needs no synchronization. Append rather
    // than swap — a parked destination can accumulate several rounds
    // of traffic, and import order must stay departure order.
    if (!flitOutbox_.empty()) {
        if (flitSealed_.empty()) {
            flitSealed_.swap(flitOutbox_);
        } else {
            flitSealed_.insert(
                flitSealed_.end(),
                std::make_move_iterator(flitOutbox_.begin()),
                std::make_move_iterator(flitOutbox_.end()));
            flitOutbox_.clear();
        }
    }
    if (!creditOutbox_.empty()) {
        if (creditSealed_.empty()) {
            creditSealed_.swap(creditOutbox_);
        } else {
            creditSealed_.insert(creditSealed_.end(),
                                 creditOutbox_.begin(),
                                 creditOutbox_.end());
            creditOutbox_.clear();
        }
    }
}

Tick
WireChannel::earliestSealedArrivalAtDst() const
{
    Tick earliest = kTickNever;
    for (const WireFlit &wire : flitSealed_)
        earliest = std::min(earliest, wire.arrival);
    return earliest;
}

Tick
WireChannel::earliestSealedArrivalAtSrc() const
{
    Tick earliest = kTickNever;
    for (Tick when : creditSealed_)
        earliest = std::min(earliest, when);
    return earliest;
}

void
WireChannel::importAtDst()
{
    if (flitSealed_.size() > maxIngressDepth_)
        maxIngressDepth_ = flitSealed_.size();
    for (WireFlit &wire : flitSealed_) {
        // Re-materialize from this (the destination) thread's pools.
        FlitPtr flit = makeFlit();
        flit->pkt = clonePacket(wire.pkt);
        flit->seq = wire.seq;
        flit->numFlits = wire.numFlits;
        flit->occupiedBytes = wire.occupiedBytes;
        flit->capacity = wire.capacity;
        flit->pooledOnce = wire.pooledOnce;
        flit->stitched.reserve(wire.stitched.size());
        for (WirePiece &piece : wire.stitched) {
            StitchedPiece sp;
            sp.pkt = clonePacket(piece.pkt);
            sp.bytes = piece.bytes;
            sp.seq = piece.seq;
            sp.numFlits = piece.numFlits;
            sp.wholePacket = piece.wholePacket;
            flit->stitched.push_back(std::move(sp));
        }
        ++flitsRematerialized_;
        // The strict-window invariant: the window that produced this
        // flit ended before its wire arrival tick, so an imported
        // arrival always lies in the receiver's future.
        NC_ASSERT(wire.arrival > dstEngine_.now(),
                  "cross-shard flit arrival ", wire.arrival,
                  " is not after the receiver's clock ", dstEngine_.now());
        dstEngine_.scheduleWireAbs(
            wire.arrival,
            [this, f = std::move(flit)]() mutable {
                deliver(std::move(f));
            },
            sim::callbackEventKind<WireChannel>());
    }
    flitSealed_.clear();
}

void
WireChannel::importAtSrc()
{
    for (Tick when : creditSealed_) {
        NC_ASSERT(when > srcEngine_.now(), "cross-shard credit arrival ",
                  when, " is not after the receiver's clock ",
                  srcEngine_.now());
        srcEngine_.scheduleWireAbs(
            when, [this] { creditArrive(); },
            sim::callbackEventKind<WireChannel>());
    }
    creditSealed_.clear();
}

double
WireChannel::utilization() const
{
    const Tick elapsed = now();
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(flitsTransferred_) /
           (static_cast<double>(elapsed) * flitsPerCycle_);
}

} // namespace netcrafter::noc
