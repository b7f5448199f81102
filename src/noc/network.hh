/**
 * @file
 * Builds the hierarchical multi-GPU interconnect of Figure 2: per-cluster
 * switches with high-bandwidth GPU-facing ports, lower-bandwidth
 * latency-bearing wire channels between clusters, per-GPU RDMA endpoints,
 * and — when any NetCrafter mechanism is enabled — a NetCrafter
 * controller on every inter-cluster egress port plus an un-stitching
 * engine on every inter-cluster ingress port.
 *
 * Every component of a cluster (switch, RDMA endpoints, GPU links,
 * controllers, un-stitchers) binds to the engine of the shard owning
 * that cluster (see sim/sharded_engine.hh); only the inter-cluster
 * WireChannels span shards. With a single shard all clusters share one
 * engine and execution is the classic serial simulation.
 */

#ifndef NETCRAFTER_NOC_NETWORK_HH
#define NETCRAFTER_NOC_NETWORK_HH

#include <map>
#include <memory>
#include <vector>

#include "src/config/system_config.hh"
#include "src/core/controller.hh"
#include "src/flow/fidelity.hh"
#include "src/flow/fidelity_controller.hh"
#include "src/noc/link.hh"
#include "src/noc/rdma.hh"
#include "src/noc/switch.hh"
#include "src/noc/traffic_monitor.hh"
#include "src/noc/wire_channel.hh"
#include "src/sim/sharded_engine.hh"
#include "src/sim/sim_object.hh"

namespace netcrafter::sim {

/** Canonical cluster-to-shard assignment: round-robin over shards. */
inline unsigned
shardOfCluster(ClusterId cluster, unsigned shards)
{
    return static_cast<unsigned>(cluster) % shards;
}

} // namespace netcrafter::sim

namespace netcrafter::noc {

/** The assembled interconnect. */
class Network : public sim::SimObject
{
  public:
    /**
     * Build on a single engine (serial execution). Flow and Hybrid
     * fidelities additionally instantiate a FidelityController wired
     * to every inter-cluster link's census sinks; the GPU system
     * routes steady-state round trips through it instead of the flit
     * path (see src/flow/fidelity_controller.hh).
     */
    Network(sim::Engine &engine, const config::SystemConfig &cfg,
            flow::Fidelity fidelity = flow::Fidelity::Cycle);

    /**
     * Build across @p engines' shards: cluster c's components bind to
     * shard sim::shardOfCluster(c, N). Cross-shard channels register
     * with @p engines for barrier exchange; their latencies bound the
     * engine's conservative windows.
     */
    Network(sim::ShardedEngine &engines,
            const config::SystemConfig &cfg);

    /** The RDMA endpoint of GPU @p gpu. */
    RdmaEngine &rdma(GpuId gpu) { return *rdmas_.at(gpu); }

    /** Cluster switch @p cluster. */
    Switch &clusterSwitch(ClusterId cluster)
    {
        return *switches_.at(cluster);
    }

    /** Inject @p pkt at its source GPU's RDMA engine. */
    void sendPacket(PacketPtr pkt);

    /** Census of the directed inter-cluster channel @p from -> @p to. */
    const TrafficMonitor &interClusterMonitor(ClusterId from,
                                              ClusterId to) const;

    /** The directed inter-cluster channel @p from -> @p to. */
    const WireChannel &interClusterChannel(ClusterId from,
                                           ClusterId to) const;

    /** Mean utilization across all inter-cluster channels (Figure 4). */
    double interClusterUtilization() const;

    /** Aggregate census over all inter-cluster channels. */
    TrafficMonitor aggregateInterClusterTraffic() const;

    /** Controller on cluster @p from's port toward @p to, or nullptr. */
    const core::NetCrafterController *controller(ClusterId from,
                                                 ClusterId to) const;

    /** Sum of flits carried by all inter-cluster channels. */
    std::uint64_t interClusterFlits() const;

    /** Sum of wire bytes carried by all inter-cluster channels. */
    std::uint64_t interClusterWireBytes() const;

    /** Flits re-materialized across shard boundaries (0 when serial). */
    std::uint64_t crossShardFlits() const;

    /** Peak per-channel ingress-queue depth at a quantum barrier. */
    std::size_t maxIngressDepth() const;

    /** Sum of flits delivered into sink buffers (conservation side of
     *  interClusterFlits(); excludes flow-credited synthetic flits). */
    std::uint64_t interClusterFlitsDelivered() const;

    /** Sum of wire bytes delivered into sink buffers. */
    std::uint64_t interClusterBytesDelivered() const;

    const config::SystemConfig &cfg() const { return cfg_; }

    /** The flow-lane controller; nullptr at cycle fidelity. */
    flow::FidelityController *flowController()
    {
        return flowController_.get();
    }
    const flow::FidelityController *flowController() const
    {
        return flowController_.get();
    }

  private:
    struct InterLink
    {
        std::unique_ptr<WireChannel> channel;
        std::unique_ptr<TrafficMonitor> monitor;
        std::unique_ptr<core::NetCrafterController> controller;
        std::unique_ptr<core::Unstitcher> unstitcher;
    };

    void build(const std::vector<sim::Engine *> &cluster_engines,
               sim::ShardedEngine *sharded);

    config::SystemConfig cfg_;
    unsigned numShards_ = 1;
    std::unique_ptr<flow::FidelityController> flowController_;
    std::vector<std::unique_ptr<RdmaEngine>> rdmas_;
    std::vector<std::unique_ptr<Switch>> switches_;
    std::vector<std::unique_ptr<Link>> gpuLinks_;
    std::map<std::pair<ClusterId, ClusterId>, InterLink> interLinks_;
};

} // namespace netcrafter::noc

#endif // NETCRAFTER_NOC_NETWORK_HH
