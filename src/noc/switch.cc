#include "src/noc/switch.hh"

#include <algorithm>

#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"

namespace netcrafter::noc {

Switch::Switch(sim::Engine &engine, std::string name,
               const SwitchParams &params)
    : SimObject(engine, std::move(name)), params_(params),
      wake_(engine, this)
{
    traceLane_ = obs::internLane(engine, this->name());
}

std::size_t
Switch::addPort(std::uint32_t flits_per_cycle)
{
    Port port;
    port.speed = flits_per_cycle;
    port.in = std::make_unique<FlitBuffer>(params_.bufferEntries);
    port.out = std::make_unique<FlitBuffer>(params_.bufferEntries);
    // Arriving flits wake the switch; space freed in an output buffer may
    // unstall routing, so that wakes the switch too.
    port.in->setOnPush([this] { notify(); });
    port.out->setOnPop([this] { notify(); });
    ports_.push_back(std::move(port));
    crossbarRate_ = std::max(crossbarRate_, flits_per_cycle);
    outBudget_.resize(ports_.size());
    return ports_.size() - 1;
}

FlitBuffer &
Switch::inBuffer(std::size_t port)
{
    return *ports_.at(port).in;
}

FlitBuffer &
Switch::outBuffer(std::size_t port)
{
    return *ports_.at(port).out;
}

void
Switch::addRoute(GpuId dst, std::size_t port)
{
    NC_ASSERT(port < ports_.size(), "route to unknown port");
    if (dst >= routes_.size())
        routes_.resize(dst + 1, kNoRoute);
    routes_[dst] = port;
}

void
Switch::setEgressProcessor(std::size_t port, EgressProcessor *proc)
{
    ports_.at(port).egress = proc;
}

void
Switch::setIngressProcessor(std::size_t port, IngressProcessor *proc)
{
    ports_.at(port).ingress = proc;
}

std::size_t
Switch::routeFor(GpuId dst) const
{
    NC_ASSERT(dst < routes_.size() && routes_[dst] != kNoRoute, name(),
              ": no route for GPU ", dst);
    return routes_[dst];
}

void
Switch::notify()
{
    wake_.notify();
}

void
Switch::cycle()
{
    const Tick t = now();
    if (t == lastCycleTick_) {
        // A stale long-delay wake-up landed on a tick we already
        // processed; per-cycle budgets must not be granted twice.
        return;
    }
    lastCycleTick_ = t;
    wake_.clearPending();

    // Routing stage: drain pipeline heads whose latency elapsed. The
    // crossbar ejects into output buffers (or the NetCrafter Cluster
    // Queue) at the switch's internal rate; the attached link then
    // drains the buffer at its own line rate — so a slow output link
    // backlogs its output queue, exactly where the paper queues flits.
    std::fill(outBudget_.begin(), outBudget_.end(), crossbarRate_);

    bool stalled = false;
    for (auto &port : ports_) {
        port.blockedOnOutput = false;
        std::uint32_t routed = 0;
        while (routed < port.speed && !port.pipeline.empty() &&
               port.pipeline.front().readyAt <= t) {
            FlitPtr &flit = port.pipeline.front().flit;
            std::size_t out_port = routeFor(flit->pkt->dst);
            if (outBudget_[out_port] == 0)
                break;
            Port &out = ports_[out_port];
            if (out.egress != nullptr) {
                if (!out.egress->tryAccept(flit)) {
                    // Head-of-line blocked; the egress processor wakes
                    // us when it frees space.
                    stalled = true;
                    port.blockedOnOutput = true;
                    break;
                }
            } else {
                if (out.out->full()) {
                    // The output buffer's pop hook wakes us.
                    stalled = true;
                    port.blockedOnOutput = true;
                    break;
                }
                out.out->tryPush(flit);
            }
            --outBudget_[out_port];
            ++flitsRouted_;
            obs::tracepoint(engine(), obs::TraceLevel::Full,
                            obs::TraceKind::PktStage,
                            obs::TraceStage::SwitchRoute, traceLane_,
                            flit != nullptr && flit->pkt != nullptr
                                ? flit->pkt->id
                                : 0,
                            static_cast<std::uint32_t>(out_port),
                            flit != nullptr ? flit->seq : 0);
            ++routed;
            port.pipeline.pop_front();
        }
    }
    if (stalled)
        ++stallCycles_;

    // Accept stage: move flits from input buffers into the processing
    // pipeline at line rate, bounded by pipeline occupancy so a clogged
    // pipeline back-pressures the input buffer (and the upstream link).
    for (auto &port : ports_) {
        const std::size_t pipeline_cap =
            static_cast<std::size_t>(port.speed) *
            (params_.pipelineLatency + 2);
        std::uint32_t accepted = 0;
        while (accepted < port.speed && !port.in->empty() &&
               port.pipeline.size() < pipeline_cap) {
            FlitPtr flit = port.in->pop();
            ++accepted;
            if (port.ingress != nullptr) {
                port.ingress->process(std::move(flit), expanded_);
                for (auto &f : expanded_) {
                    port.pipeline.push_back(
                        PipelineEntry{std::move(f),
                                      t + params_.pipelineLatency});
                }
                expanded_.clear();
            } else {
                port.pipeline.push_back(
                    PipelineEntry{std::move(flit),
                                  t + params_.pipelineLatency});
            }
        }
    }

    // Decide when to wake next: immediately while transferable work
    // exists, or exactly when the earliest pipeline entry matures.
    Tick next = kTickNever;
    for (const auto &port : ports_) {
        if (!port.in->empty())
            next = std::min(next, t + 1);
        if (port.pipeline.empty())
            continue;
        const Tick ready = port.pipeline.front().readyAt;
        if (ready > t) {
            next = std::min(next, ready);
        } else if (!port.blockedOnOutput) {
            // Ready but budget-limited this cycle: try again next one.
            // (A head blocked on a full output sleeps until the output's
            // pop hook or the egress processor wakes us.)
            next = std::min(next, t + 1);
        }
    }
    if (next == kTickNever)
        return;
    if (next == t + 1) {
        notify();
    } else if (next < pendingLongWake_ || pendingLongWake_ <= t) {
        pendingLongWake_ = next;
        engine().scheduleAbs(next, [this] { cycle(); });
    }
}

} // namespace netcrafter::noc
