/**
 * @file
 * Per-GPU RDMA engine (Section 2.1, Figure 2 steps 4a-4e): the endpoint
 * that segments outgoing packets into flits, injects them into the
 * network, and reassembles arriving flits back into packets.
 */

#ifndef NETCRAFTER_NOC_RDMA_HH
#define NETCRAFTER_NOC_RDMA_HH

#include <cstdint>
#include <vector>

#include "src/noc/flit_buffer.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/ring.hh"
#include "src/sim/self_scheduling.hh"
#include "src/sim/sim_object.hh"
#include "src/sim/small_fn.hh"

namespace netcrafter::noc {

/**
 * RDMA engine: one per GPU. Outgoing packets wait in an internal queue
 * and are injected flit-by-flit at the attached link's rate as the TX
 * buffer drains; incoming flits are reassembled and complete packets are
 * dispatched to the request or response handler.
 *
 * The ingress side always accepts (the engine never back-pressures the
 * network), which together with MSHR-bounded outstanding requests makes
 * protocol deadlock impossible (Section 4.5).
 */
class RdmaEngine : public sim::SimObject
{
  public:
    using PacketHandler = sim::InlineFn<void(PacketPtr)>;

    RdmaEngine(sim::Engine &engine, std::string name, GpuId gpu,
               std::uint32_t flit_bytes, std::size_t buffer_entries);

    /** GPU this engine belongs to. */
    GpuId gpu() const { return gpu_; }

    /** Buffer the outgoing link drains flits from. */
    FlitBuffer &txBuffer() { return tx_; }

    /** Buffer the incoming link delivers flits into. */
    FlitBuffer &rxBuffer() { return rx_; }

    /** Handler for incoming request packets (ReadReq/WriteReq/PTReq). */
    void setRequestHandler(PacketHandler fn)
    {
        requestHandler_ = std::move(fn);
    }

    /** Handler for incoming response packets. */
    void setResponseHandler(PacketHandler fn)
    {
        responseHandler_ = std::move(fn);
    }

    /**
     * Queue @p pkt for injection. Stamps injectedAt with the current
     * tick. The internal queue is unbounded; callers bound outstanding
     * traffic through their MSHRs.
     */
    void sendPacket(PacketPtr pkt);

    /** Packets injected so far. */
    std::uint64_t packetsSent() const { return packetsSent_; }

    /** Packets fully reassembled and delivered so far. */
    std::uint64_t packetsReceived() const { return packetsReceived_; }

    /** Outgoing packets not yet fully pushed into the TX buffer. */
    std::size_t sendQueueDepth() const { return sendQueue_.size(); }

  private:
    void pumpTx();
    void pumpRx();

    GpuId gpu_;
    std::uint32_t flitBytes_;
    FlitBuffer tx_;
    FlitBuffer rx_;
    PacketHandler requestHandler_;
    PacketHandler responseHandler_;

    /** Flits of queued packets awaiting TX buffer space, in order. */
    sim::Ring<FlitPtr> sendQueue_;

    /** Scratch: the flits of the packet being queued. */
    std::vector<FlitPtr> segmented_;
    sim::SelfScheduling<RdmaEngine, &RdmaEngine::pumpTx> txWake_;
    sim::SelfScheduling<RdmaEngine, &RdmaEngine::pumpRx> rxWake_;

    /** packet id -> bytes received so far, for reassembly. */
    sim::FlatMap<std::uint32_t> reassembly_;

    std::uint64_t packetsSent_ = 0;
    std::uint64_t packetsReceived_ = 0;
    std::uint16_t traceLane_ = 0;
};

} // namespace netcrafter::noc

#endif // NETCRAFTER_NOC_RDMA_HH
