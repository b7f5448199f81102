/**
 * @file
 * WireChannel: a unidirectional inter-cluster wire with a fixed flight
 * latency and credit-based flow control, replacing the zero-latency
 * Link on cluster-to-cluster connections. The latency is what gives the
 * sharded engine its conservative lookahead (see sim/sharded_engine.hh)
 * — and the channel behaves identically whether its two endpoints share
 * an engine (serial execution, or co-located clusters when the shard
 * count is below the cluster count) or live on different shards.
 *
 * Egress side (source shard): each cycle the channel pops up to
 * `flitsPerCycle` flits from the source buffer, consuming one credit
 * per flit, and puts them "on the wire" to arrive `latency` cycles
 * later. Ingress side (destination shard): an arrival is a wire-phase
 * event that pushes the flit into the sink buffer — guaranteed to have
 * room, because credits mirror the sink's capacity. Every sink pop
 * returns a credit that reaches the egress side `latency` cycles later.
 *
 * When the endpoints are on different shards, a departing flit is
 * snapshotted by value (packet payloads included) into the channel's
 * outbox and re-materialized from the destination shard's thread-local
 * pools after a quantum barrier: pooled refcounts are non-atomic,
 * so a pooled object is never shared across threads — ownership of the
 * bits transfers through the snapshot, and the source-side handles drop
 * on the source thread. Credits travel the opposite way through a tick
 * outbox. At each barrier the round coordinator seals the outboxes
 * (moving them to the sealed import side in order); an importing shard
 * only ever touches the sealed side, so a writer appending to an
 * outbox never races an importer even when the two shards run rounds
 * back-to-back. Every buffer is single-writer/single-reader with the
 * barrier providing the happens-before edge, and the sealed side also
 * answers the coordinator's earliest-arrival queries that bound the
 * adaptive lookahead window.
 */

#ifndef NETCRAFTER_NOC_WIRE_CHANNEL_HH
#define NETCRAFTER_NOC_WIRE_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/noc/flit_buffer.hh"
#include "src/sim/self_scheduling.hh"
#include "src/sim/sharded_engine.hh"
#include "src/sim/sim_object.hh"

namespace netcrafter::noc {

/** Latency + credit flow-controlled channel between two flit buffers. */
class WireChannel : public sim::SimObject, public sim::CrossShardPort
{
  public:
    /**
     * @p src_engine must be the engine of the shard owning @p source's
     * producer; @p dst_engine the one owning @p sink's consumer. They
     * may be the same object (serial / co-located). Initial credits are
     * @p sink's capacity, so deliveries can never overrun it.
     */
    WireChannel(sim::Engine &src_engine, sim::Engine &dst_engine,
                std::string name, FlitBuffer &source, FlitBuffer &sink,
                std::uint32_t flits_per_cycle, Tick latency,
                unsigned src_shard, unsigned dst_shard);

    /** Wake the egress side; schedules a pump if none is pending. */
    void notify();

    /** True when the endpoints live on different shards. */
    bool crossShard() const { return srcShard_ != dstShard_; }

    /** Flight latency in cycles (the shard lookahead contribution). */
    Tick latency() const { return latency_; }

    /** Peak flits/cycle capacity. */
    std::uint32_t flitsPerCycle() const { return flitsPerCycle_; }

    /** Flits put on the wire over the channel's lifetime. */
    std::uint64_t flitsTransferred() const { return flitsTransferred_; }

    /** Wire bytes transferred (flits x capacity). */
    std::uint64_t bytesTransferred() const { return bytesTransferred_; }

    /** Useful (non-padded) bytes transferred. */
    std::uint64_t
    usefulBytesTransferred() const
    {
        return usefulBytesTransferred_;
    }

    /** Cycles in which at least one flit departed. */
    std::uint64_t busyCycles() const { return busyCycles_; }

    /** Utilization over [0, now]: flits moved / (cycles x capacity). */
    double utilization() const;

    /** First tick at which the channel did any work (0 if never). */
    Tick firstBusyTick() const { return firstBusyTick_; }

    /** Last tick at which the channel did any work. */
    Tick lastBusyTick() const { return lastBusyTick_; }

    /** Observe every flit entering the wire (traffic monitors). */
    void
    setObserver(std::function<void(const Flit &)> fn)
    {
        observer_ = std::move(fn);
    }

    /**
     * Credit traffic the flow lane (src/flow/) carried over this wire
     * analytically: the synthesized @p flits never existed as objects,
     * but the channel's transfer and busy counters must cover them so
     * utilization and wire-byte figures read the same at any fidelity.
     */
    void
    creditFlowTraffic(std::uint64_t flits, std::uint64_t wire_bytes,
                      std::uint64_t useful_bytes, Tick tick)
    {
        usefulBytesTransferred_ += useful_bytes;
        if (flits == 0)
            return;
        flitsTransferred_ += flits;
        bytesTransferred_ += wire_bytes;
        busyCycles_ += divCeil(flits, flitsPerCycle_);
        if (!everBusy_) {
            everBusy_ = true;
            firstBusyTick_ = tick;
        }
        lastBusyTick_ = std::max(lastBusyTick_, tick);
    }

    /** Flits re-materialized into the destination shard's pools. */
    std::uint64_t
    flitsRematerialized() const
    {
        return flitsRematerialized_;
    }

    /** Peak sealed-flit backlog observed at an import. */
    std::size_t maxIngressDepth() const { return maxIngressDepth_; }

    /** Flits actually delivered into the sink buffer. After a drained
     *  run this equals flitsTransferred() minus flow-credited synthetic
     *  flits: the wire never drops or duplicates a flit. */
    std::uint64_t flitsDelivered() const { return flitsDelivered_; }

    /** Wire bytes (flits x capacity) delivered into the sink. */
    std::uint64_t bytesDelivered() const { return bytesDelivered_; }

    // CrossShardPort interface (used only when crossShard()).
    unsigned srcShard() const override { return srcShard_; }
    unsigned dstShard() const override { return dstShard_; }
    Tick minLatency() const override { return latency_; }
    void sealExports() override;
    Tick earliestSealedArrivalAtDst() const override;
    Tick earliestSealedArrivalAtSrc() const override;
    void importAtDst() override;
    void importAtSrc() override;

    /** Flits + credits still queued for export (teardown census). */
    std::size_t
    pendingExports() const override
    {
        return flitOutbox_.size() + flitSealed_.size() +
               creditOutbox_.size() + creditSealed_.size();
    }

  private:
    /** Value snapshot of a stitched piece for cross-shard transfer. */
    struct WirePiece
    {
        Packet pkt;
        std::uint16_t bytes;
        std::uint32_t seq;
        std::uint32_t numFlits;
        bool wholePacket;
    };

    /** Value snapshot of a flit in flight across a shard boundary. */
    struct WireFlit
    {
        Tick arrival;
        Packet pkt;
        std::uint32_t seq;
        std::uint32_t numFlits;
        std::uint16_t occupiedBytes;
        std::uint16_t capacity;
        bool pooledOnce;
        std::vector<WirePiece> stitched;
    };

    void pump();
    void ship(FlitPtr flit, Tick arrival);
    void deliver(FlitPtr flit);
    void creditArrive();
    void onSinkPop();

    sim::Engine &srcEngine_;
    sim::Engine &dstEngine_;
    FlitBuffer &source_;
    FlitBuffer &sink_;
    std::uint32_t flitsPerCycle_;
    Tick latency_;
    unsigned srcShard_;
    unsigned dstShard_;
    std::size_t credits_;
    sim::SelfScheduling<WireChannel, &WireChannel::pump> wake_;
    std::function<void(const Flit &)> observer_;

    /** Written by the source shard in a window, moved to flitSealed_
     * by the round coordinator (sealExports). */
    std::vector<WireFlit> flitOutbox_;

    /** Written by the destination shard, moved to creditSealed_ by
     * the coordinator. */
    std::vector<Tick> creditOutbox_;

    /** Sealed flits awaiting import on the destination shard. Stays
     * populated across rounds while the destination is parked. */
    std::vector<WireFlit> flitSealed_;

    /** Sealed credit returns awaiting import on the source shard. */
    std::vector<Tick> creditSealed_;

    std::uint64_t flitsTransferred_ = 0;
    std::uint64_t bytesTransferred_ = 0;
    std::uint64_t usefulBytesTransferred_ = 0;
    std::uint64_t busyCycles_ = 0;
    Tick firstBusyTick_ = 0;
    Tick lastBusyTick_ = 0;
    bool everBusy_ = false;
    std::uint64_t flitsRematerialized_ = 0;
    std::size_t maxIngressDepth_ = 0;
    std::uint64_t flitsDelivered_ = 0;
    std::uint64_t bytesDelivered_ = 0;
    std::uint16_t traceLane_ = 0;
};

} // namespace netcrafter::noc

#endif // NETCRAFTER_NOC_WIRE_CHANNEL_HH
