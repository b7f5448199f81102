#include "src/serve/session.hh"

#include <algorithm>
#include <string>

#include "src/obs/progress_board.hh"
#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"

namespace netcrafter::serve {

namespace {

/**
 * Stream id of (gpu, class) in the CounterRng stream space. Wave seeds
 * use a disjoint id range (offset by kSeedStreamBase) so arrival gaps
 * and wavefront contents never share draws.
 */
constexpr std::uint64_t kSeedStreamBase = 1ull << 32;

std::uint64_t
streamId(GpuId g, TrafficClass cls)
{
    return static_cast<std::uint64_t>(g) * kNumTrafficClasses +
           static_cast<std::uint64_t>(cls);
}

} // namespace

ServeSession::ServeSession(gpu::MultiGpuSystem &sys,
                           const ServeConfig &cfg, double scale)
    : sys_(sys), cfg_(cfg)
{
    NC_ASSERT(cfg_.enabled, "ServeSession with serving disabled");
    cfg_.validate();

    const std::uint32_t num_gpus = sys_.cfg().numGpus();

    workloads::BuildContext ctx;
    ctx.numGpus = num_gpus;
    ctx.scale = scale;
    ctx.seed = cfg_.seed;
    ctx.placement = &sys_;
    // Keep serve buffers clear of any workload VA range so a session
    // can coexist with closed-loop kernels on the same system.
    ctx.nextVa = 0x8'0000'0000ull;
    kernels_ = buildClassKernels(ctx);

    perGpu_.resize(num_gpus);
    streams_.reserve(num_gpus * kNumTrafficClasses);
    for (GpuId g = 0; g < num_gpus; ++g) {
        perGpu_[g].traceLane = obs::internLane(
            sys_.engineFor(g), "gpu" + std::to_string(g) + ".serve");
        for (std::size_t c = 0; c < kNumTrafficClasses; ++c) {
            const auto cls = static_cast<TrafficClass>(c);
            streams_.push_back(Stream{
                ArrivalSequence(cfg_.arrival, cfg_.seed,
                                streamId(g, cls),
                                cfg_.meanGapTicks(cls, num_gpus),
                                cfg_.burst),
                g, cls, 0});
        }
    }
}

void
ServeSession::scheduleArrival(std::size_t stream_idx, Tick when)
{
    // The event runs on the stream's home shard: injection touches only
    // GPU-local state, keeping sharded execution race-free and
    // bit-identical.
    sys_.engineFor(streams_[stream_idx].gpu)
        .scheduleAbs(
            when, [this, stream_idx, when] { inject(stream_idx, when); },
            sim::callbackEventKind<ServeSession>());
}

void
ServeSession::inject(std::size_t stream_idx, Tick now)
{
    Stream &stream = streams_[stream_idx];
    PerGpu &local = perGpu_[stream.gpu];

    Request req;
    req.arrival = now;
    req.cls = static_cast<std::uint8_t>(stream.cls);
    req.measured = now >= cfg_.warmupTicks && now < endTick();
    const std::uint64_t local_id = local.requests.size();
    local.requests.push_back(req);

    ++local.injected;
    local.measuredArrivals += req.measured ? 1 : 0;
    ++local.inflight;
    local.peakInflight = std::max(local.peakInflight, local.inflight);
    // Live-telemetry gauge: runs on the GPU's shard, so the cell's
    // single-writer discipline holds; pure observation, never read back.
    if (obs::ShardCell *cell =
            sys_.engineFor(stream.gpu).progressCell())
        cell->serveInflight.fetch_add(1, std::memory_order_relaxed);

    gpu::WaveDesc desc;
    desc.kernel = &kernels_.of(stream.cls);
    desc.cta = stream.gpu; // CTA id = home GPU (PartitionedRandom chunk)
    desc.wave = stream.nextReq++;
    desc.seed = CounterRng::draw(
        cfg_.seed, kSeedStreamBase + streamId(stream.gpu, stream.cls),
        desc.wave);
    desc.serveTag = local_id + 1;

    obs::tracepoint(sys_.engineFor(stream.gpu),
                    obs::TraceLevel::Packets, obs::TraceKind::PktStage,
                    obs::TraceStage::ServeArrive, local.traceLane,
                    (static_cast<std::uint64_t>(stream.gpu) << 32) |
                        local_id,
                    static_cast<std::uint32_t>(stream.cls),
                    req.measured ? 1u : 0u);

    sys_.dispatchServeWave(stream.gpu, desc);

    const Tick next = now + stream.arrivals.next();
    if (next < endTick())
        scheduleArrival(stream_idx, next);
}

void
ServeSession::onRetire(GpuId g, const gpu::WaveDesc &desc)
{
    PerGpu &local = perGpu_[g];
    NC_ASSERT(desc.serveTag >= 1 &&
                  desc.serveTag <= local.requests.size(),
              "retired serve wave with unknown tag ", desc.serveTag);
    const Request &req = local.requests[desc.serveTag - 1];

    const Tick now = sys_.engineFor(g).now();
    NC_ASSERT(now >= req.arrival, "request retired before arrival");
    const Tick latency = now - req.arrival;

    ++local.completed;
    NC_ASSERT(local.inflight > 0, "retire with no requests in flight");
    --local.inflight;
    if (obs::ShardCell *cell = sys_.engineFor(g).progressCell())
        cell->serveInflight.fetch_sub(1, std::memory_order_relaxed);
    if (req.measured)
        local.sketch[req.cls].record(latency);

    obs::tracepoint(sys_.engineFor(g), obs::TraceLevel::Packets,
                    obs::TraceKind::PktStage,
                    obs::TraceStage::ServeRetire, local.traceLane,
                    (static_cast<std::uint64_t>(g) << 32) |
                        (desc.serveTag - 1),
                    static_cast<std::uint32_t>(req.cls),
                    static_cast<std::uint32_t>(
                        std::min<Tick>(latency, 0xffffffffull)));
}

ServeReport
ServeSession::run(Tick max_cycles)
{
    sys_.setWaveRetireHook([this](GpuId g, const gpu::WaveDesc &desc) {
        if (desc.serveTag != 0)
            onRetire(g, desc);
    });

    // Seed the first arrival of every stream. Gaps are >= 1, so the
    // first arrival is strictly after tick 0 and scheduleAbs is safe
    // on a fresh engine.
    const Tick base = sys_.engines().shard(0).now();
    NC_ASSERT(base == 0,
              "serve session must start on a fresh system (now=", base,
              ")");
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        const Tick first = base + streams_[i].arrivals.next();
        if (first < endTick())
            scheduleArrival(i, first);
    }

    // One engine run covers all phases: arrivals self-perpetuate until
    // endTick() and the queues drain once the tail requests retire.
    const sim::RunStatus status = sys_.engines().run(max_cycles);
    sys_.engines().alignClocks();
    sys_.setWaveRetireHook(nullptr);

    ServeReport report;
    report.status = status;
    report.cycles = sys_.cycles();
    for (const PerGpu &local : perGpu_) {
        report.injected += local.injected;
        report.measured += local.measuredArrivals;
        report.completed += local.completed;
        report.peakInflight =
            std::max(report.peakInflight, local.peakInflight);
    }

    // Merge per-GPU sketches in GPU order per class, then fold the
    // class sketches into the aggregate: every merge is an exact
    // bucket-count addition, so the report cannot depend on shards.
    auto summarize = [](const stats::QuantileSketch &s) {
        ClassLatency out;
        out.measured = s.count();
        out.meanLatency = s.mean();
        out.p50 = s.quantile(0.50);
        out.p95 = s.quantile(0.95);
        out.p99 = s.quantile(0.99);
        out.p999 = s.quantile(0.999);
        return out;
    };
    stats::QuantileSketch aggregate;
    for (std::size_t c = 0; c < kNumTrafficClasses; ++c) {
        stats::QuantileSketch merged;
        for (const PerGpu &local : perGpu_)
            merged.merge(local.sketch[c]);
        report.perClass[c] = summarize(merged);
        aggregate.merge(merged);
    }
    report.aggregate = summarize(aggregate);
    report.throughput =
        static_cast<double>(report.aggregate.measured) * 1000.0 /
        static_cast<double>(cfg_.measureTicks);
    return report;
}

} // namespace netcrafter::serve
