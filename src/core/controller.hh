/**
 * @file
 * The NetCrafter Controller (Section 4.4, Figure 13): sits at a cluster
 * switch's inter-GPU-cluster egress port and applies Trimming, buffers
 * flits in the Cluster Queue, and performs Stitching (with optional Flit
 * Pooling / Selective Flit Pooling) and Sequencing before flits are
 * pushed onto the lower-bandwidth link.
 */

#ifndef NETCRAFTER_CORE_CONTROLLER_HH
#define NETCRAFTER_CORE_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/config/system_config.hh"
#include "src/core/cluster_queue.hh"
#include "src/core/stitch_engine.hh"
#include "src/core/trim_engine.hh"
#include "src/noc/flit_buffer.hh"
#include "src/noc/switch.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/self_scheduling.hh"
#include "src/sim/sim_object.hh"
#include "src/sim/small_fn.hh"

namespace netcrafter::core {

/** Aggregate controller statistics. */
struct ControllerStats
{
    std::uint64_t flitsEjected = 0;
    std::uint64_t flitsAccepted = 0;
    std::uint64_t poolingArms = 0;
    std::uint64_t poolingStitchHits = 0; // pooled head later stitched
    std::array<std::uint64_t, kNumCqClasses> armsByClass{};
    std::uint64_t occupancyAtArmSum = 0;
    std::uint64_t idlePumpExits = 0; // pump ended with all blocked
};

/**
 * Egress-side NetCrafter controller. One instance per (cluster switch,
 * inter-cluster output port).
 */
class NetCrafterController : public sim::SimObject,
                             public noc::EgressProcessor
{
  public:
    /**
     * @param cfg NetCrafter mechanism configuration.
     * @param cluster_of maps a GPU id to its cluster.
     * @param dst_clusters remote clusters reachable through this port.
     * @param out the switch output buffer feeding the inter-cluster link.
     * @param egress_rate flits/cycle the lower-bandwidth link accepts.
     * @param wake_switch called when CQ space frees (unstalls routing).
     */
    NetCrafterController(sim::Engine &engine, std::string name,
                         const config::NetCrafterConfig &cfg,
                         sim::InlineFn<ClusterId(GpuId)> cluster_of,
                         std::vector<ClusterId> dst_clusters,
                         noc::FlitBuffer &out, std::uint32_t egress_rate,
                         sim::SmallFn wake_switch);

    /** EgressProcessor: the switch offers a routed flit. */
    bool tryAccept(noc::FlitPtr flit) override;

    const ControllerStats &stats() const { return stats_; }
    const StitchStats &stitchStats() const { return stitch_.stats(); }
    const TrimStats &trimStats() const { return trim_.stats(); }
    const ClusterQueue &clusterQueue() const { return cq_; }

  private:
    void enqueue(noc::FlitPtr flit);
    void completePacket(const noc::PacketPtr &pkt,
                        std::vector<noc::FlitPtr> &flits);
    void schedulePump();
    void pump();

    config::NetCrafterConfig cfg_;
    sim::InlineFn<ClusterId(GpuId)> clusterOf_;
    noc::FlitBuffer &out_;
    std::uint32_t egressRate_;
    sim::SmallFn wakeSwitch_;

    TrimEngine trim_;
    StitchEngine stitch_;
    ClusterQueue cq_;

    /** Flits of multi-flit packets awaiting their tail (Trim Engine). */
    sim::WaitLists<noc::FlitPtr> pending_;

    /** Scratch: the flits of the packet whose tail just arrived. */
    std::vector<noc::FlitPtr> packetFlits_;

    /** Accumulated-but-not-yet-CQ'd flits per destination cluster, so
     *  admission control covers the trim holding area too. */
    std::unordered_map<ClusterId, std::size_t> pendingPerDst_;

    sim::SelfScheduling<NetCrafterController, &NetCrafterController::pump>
        pumpWake_;
    Tick lastPumpTick_ = kTickNever;
    ControllerStats stats_;
    std::uint16_t traceLane_ = 0;
};

/**
 * Ingress-side un-stitching engine: attached to the inter-cluster input
 * port of the receiving cluster switch; takes stitched wire flits apart
 * before routing.
 */
class Unstitcher : public noc::IngressProcessor
{
  public:
    void
    process(noc::FlitPtr flit, std::vector<noc::FlitPtr> &out) override
    {
        stitch_.unstitch(std::move(flit), out);
    }

    const StitchStats &stats() const { return stitch_.stats(); }

  private:
    StitchEngine stitch_;
};

} // namespace netcrafter::core

#endif // NETCRAFTER_CORE_CONTROLLER_HH
