#include "src/noc/network.hh"

#include <algorithm>
#include <string>

#include "src/sim/logging.hh"

namespace netcrafter::noc {

Network::Network(sim::Engine &engine, const config::SystemConfig &cfg,
                 flow::Fidelity fidelity)
    : SimObject(engine, "network"), cfg_(cfg)
{
    cfg_.validate();
    const std::vector<sim::Engine *> cluster_engines(cfg_.numClusters,
                                                     &engine);
    build(cluster_engines, nullptr);
    if (fidelity != flow::Fidelity::Cycle) {
        flowController_ = std::make_unique<flow::FidelityController>(
            cfg_, fidelity);
        for (auto &[key, il] : interLinks_) {
            flowController_->attachInterLink(key.first, key.second,
                                             il.monitor.get(),
                                             il.channel.get());
        }
    }
}

Network::Network(sim::ShardedEngine &engines,
                 const config::SystemConfig &cfg)
    : SimObject(engines.shard(0), "network"), cfg_(cfg),
      numShards_(engines.numShards())
{
    cfg_.validate();
    std::vector<sim::Engine *> cluster_engines;
    cluster_engines.reserve(cfg_.numClusters);
    for (ClusterId c = 0; c < cfg_.numClusters; ++c) {
        cluster_engines.push_back(
            &engines.shard(sim::shardOfCluster(c, numShards_)));
    }
    build(cluster_engines, &engines);
}

void
Network::build(const std::vector<sim::Engine *> &cluster_engines,
               sim::ShardedEngine *sharded)
{
    const std::uint32_t num_gpus = cfg_.numGpus();
    const std::uint32_t intra_rate = cfg_.intraFlitsPerCycle();
    const std::uint32_t inter_rate = cfg_.interFlitsPerCycle();

    SwitchParams sw_params;
    sw_params.pipelineLatency = cfg_.switchLatency;
    sw_params.bufferEntries = cfg_.switchBufferEntries;

    for (ClusterId c = 0; c < cfg_.numClusters; ++c) {
        switches_.push_back(std::make_unique<Switch>(
            *cluster_engines[c],
            "cluster" + std::to_string(c) + ".switch", sw_params));
    }

    // GPU endpoints and GPU <-> cluster-switch links, all on the GPU's
    // cluster engine.
    for (GpuId g = 0; g < num_gpus; ++g) {
        const ClusterId c = cfg_.clusterOf(g);
        sim::Engine &engine = *cluster_engines[c];
        Switch &sw = *switches_[c];
        rdmas_.push_back(std::make_unique<RdmaEngine>(
            engine, "gpu" + std::to_string(g) + ".rdma", g,
            cfg_.flitBytes, cfg_.rdmaBufferEntries));
        RdmaEngine &rdma = *rdmas_.back();

        const std::size_t port = sw.addPort(intra_rate);
        sw.addRoute(g, port);
        gpuLinks_.push_back(std::make_unique<Link>(
            engine, "gpu" + std::to_string(g) + ".up", rdma.txBuffer(),
            sw.inBuffer(port), intra_rate));
        gpuLinks_.push_back(std::make_unique<Link>(
            engine, "gpu" + std::to_string(g) + ".down",
            sw.outBuffer(port), rdma.rxBuffer(), intra_rate));
    }

    // Inter-cluster full mesh: a directed wire channel per ordered
    // cluster pair. With N clusters the per-switch Cluster Queue SRAM is
    // split across the N-1 egress ports so the Table 2 budget is
    // respected.
    const std::size_t cq_entries_per_port =
        cfg_.numClusters > 1
            ? cfg_.netcrafter.clusterQueueEntries / (cfg_.numClusters - 1)
            : cfg_.netcrafter.clusterQueueEntries;

    std::map<std::pair<ClusterId, ClusterId>, std::size_t> inter_port;
    for (ClusterId from = 0; from < cfg_.numClusters; ++from) {
        for (ClusterId to = 0; to < cfg_.numClusters; ++to) {
            if (from == to)
                continue;
            inter_port[{from, to}] =
                switches_[from]->addPort(inter_rate);
            // Route all GPUs of cluster `to` through this port.
            for (GpuId g = 0; g < num_gpus; ++g) {
                if (cfg_.clusterOf(g) == to)
                    switches_[from]->addRoute(g, inter_port[{from, to}]);
            }
        }
    }

    for (ClusterId from = 0; from < cfg_.numClusters; ++from) {
        for (ClusterId to = 0; to < cfg_.numClusters; ++to) {
            if (from == to)
                continue;
            const std::size_t out_port = inter_port[{from, to}];
            const std::size_t in_port = inter_port[{to, from}];
            Switch &src_sw = *switches_[from];
            Switch &dst_sw = *switches_[to];
            sim::Engine &src_engine = *cluster_engines[from];
            sim::Engine &dst_engine = *cluster_engines[to];
            const unsigned src_shard =
                sim::shardOfCluster(from, numShards_);
            const unsigned dst_shard =
                sim::shardOfCluster(to, numShards_);

            InterLink il;
            il.monitor = std::make_unique<TrafficMonitor>();
            il.channel = std::make_unique<WireChannel>(
                src_engine, dst_engine,
                "inter" + std::to_string(from) + "to" + std::to_string(to),
                src_sw.outBuffer(out_port), dst_sw.inBuffer(in_port),
                inter_rate, cfg_.interLinkLatency, src_shard, dst_shard);
            TrafficMonitor *mon = il.monitor.get();
            il.channel->setObserver(
                [mon](const Flit &flit) { mon->observe(flit); });
            if (il.channel->crossShard()) {
                NC_ASSERT(sharded != nullptr,
                          "cross-shard channel without a sharded engine");
                sharded->registerPort(*il.channel);
            }

            if (cfg_.netcrafter.anyEnabled()) {
                config::NetCrafterConfig nc_cfg = cfg_.netcrafter;
                nc_cfg.clusterQueueEntries = cq_entries_per_port;
                const config::SystemConfig &sys = cfg_;
                Switch *src_ptr = &src_sw;
                il.controller =
                    std::make_unique<core::NetCrafterController>(
                        src_engine,
                        "cluster" + std::to_string(from) +
                            ".netcrafter.to" + std::to_string(to),
                        nc_cfg,
                        [sys](GpuId g) { return sys.clusterOf(g); },
                        std::vector<ClusterId>{to},
                        src_sw.outBuffer(out_port), inter_rate,
                        [src_ptr] { src_ptr->notify(); });
                src_sw.setEgressProcessor(out_port, il.controller.get());

                il.unstitcher = std::make_unique<core::Unstitcher>();
                dst_sw.setIngressProcessor(in_port, il.unstitcher.get());
            }
            interLinks_.emplace(std::make_pair(from, to), std::move(il));
        }
    }
}

void
Network::sendPacket(PacketPtr pkt)
{
    NC_ASSERT(pkt->src < rdmas_.size() && pkt->dst < rdmas_.size(),
              "packet endpoints out of range: ", pkt->toString());
    pkt->interCluster =
        cfg_.clusterOf(pkt->src) != cfg_.clusterOf(pkt->dst);
    rdmas_[pkt->src]->sendPacket(std::move(pkt));
}

const TrafficMonitor &
Network::interClusterMonitor(ClusterId from, ClusterId to) const
{
    return *interLinks_.at({from, to}).monitor;
}

const WireChannel &
Network::interClusterChannel(ClusterId from, ClusterId to) const
{
    return *interLinks_.at({from, to}).channel;
}

double
Network::interClusterUtilization() const
{
    if (interLinks_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &[key, il] : interLinks_)
        sum += il.channel->utilization();
    return sum / static_cast<double>(interLinks_.size());
}

TrafficMonitor
Network::aggregateInterClusterTraffic() const
{
    // Monitors are additive; re-observe is not possible, so sum fields
    // via a simple merge: rely on the fact that monitors only ever
    // accumulate. We rebuild an aggregate by merging counters.
    TrafficMonitor agg;
    for (const auto &[key, il] : interLinks_)
        agg.merge(*il.monitor);
    return agg;
}

const core::NetCrafterController *
Network::controller(ClusterId from, ClusterId to) const
{
    auto it = interLinks_.find({from, to});
    if (it == interLinks_.end())
        return nullptr;
    return it->second.controller.get();
}

std::uint64_t
Network::interClusterFlits() const
{
    std::uint64_t sum = 0;
    for (const auto &[key, il] : interLinks_)
        sum += il.channel->flitsTransferred();
    return sum;
}

std::uint64_t
Network::interClusterWireBytes() const
{
    std::uint64_t sum = 0;
    for (const auto &[key, il] : interLinks_)
        sum += il.channel->bytesTransferred();
    return sum;
}

std::uint64_t
Network::crossShardFlits() const
{
    std::uint64_t sum = 0;
    for (const auto &[key, il] : interLinks_)
        sum += il.channel->flitsRematerialized();
    return sum;
}

std::size_t
Network::maxIngressDepth() const
{
    std::size_t depth = 0;
    for (const auto &[key, il] : interLinks_)
        depth = std::max(depth, il.channel->maxIngressDepth());
    return depth;
}

std::uint64_t
Network::interClusterFlitsDelivered() const
{
    std::uint64_t sum = 0;
    for (const auto &[key, il] : interLinks_)
        sum += il.channel->flitsDelivered();
    return sum;
}

std::uint64_t
Network::interClusterBytesDelivered() const
{
    std::uint64_t sum = 0;
    for (const auto &[key, il] : interLinks_)
        sum += il.channel->bytesDelivered();
    return sum;
}

} // namespace netcrafter::noc
