#include "src/harness/runner.hh"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/gpu/system.hh"
#include "src/obs/chrome_trace.hh"
#include "src/serve/session.hh"
#include "src/obs/interval_sampler.hh"
#include "src/obs/lifecycle.hh"
#include "src/obs/progress_board.hh"
#include "src/obs/telemetry.hh"
#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"
#include "src/sim/pool.hh"
#include "src/sim/small_fn.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::harness {

namespace {

/** Per-run output path prefix inside the trace directory. */
std::string
traceFileBase(const obs::TraceOptions &trace,
              const std::string &workload,
              const config::SystemConfig &cfg, double scale,
              unsigned shards)
{
    std::ostringstream base;
    base << trace.outDir << '/' << workload << '-'
         << config::digestHex(cfg) << "-s" << scale << "-n" << shards;
    return base.str();
}

/**
 * Fill every system-derived field of @p r — the measurement and
 * diagnostic census shared by workload and serving runs.
 */
void
collectSystemStats(RunResult &r, gpu::MultiGpuSystem &system,
                   const config::SystemConfig &cfg)
{
    r.cycles = system.cycles();
    r.events = system.engines().eventsExecuted();
    r.eventLedger = system.engines().eventLedger();
    r.instructions = system.totalInstructions();
    r.l1ReadAccesses = system.l1ReadAccesses();
    r.l1ReadMisses = system.l1ReadMisses();
    r.l1Mpki = system.l1Mpki();

    const noc::Network &net = system.network();
    noc::TrafficMonitor census = net.aggregateInterClusterTraffic();
    r.interFlits = census.totalFlits();
    r.interWireBytes = census.totalWireBytes();
    r.interUsefulBytes = census.totalUsefulBytes();
    r.interUtilization = net.interClusterUtilization();
    r.ptwByteFraction = census.ptwByteFraction();
    r.paddedFlitFraction = census.fractionQuarterOrThreeQuarterPadded();
    if (census.totalFlits() > 0) {
        r.quarterPaddedFraction =
            static_cast<double>(census.flitsQuarterPadded()) /
            static_cast<double>(census.totalFlits());
        r.threeQuarterPaddedFraction =
            static_cast<double>(census.flitsThreeQuarterPadded()) /
            static_cast<double>(census.totalFlits());
    }
    r.stitchedFraction = census.stitchedFlitFraction();
    r.stitchedPieces = census.stitchedPieces();

    for (ClusterId from = 0; from < cfg.numClusters; ++from) {
        for (ClusterId to = 0; to < cfg.numClusters; ++to) {
            if (from == to)
                continue;
            const auto *ctrl = net.controller(from, to);
            if (ctrl == nullptr)
                continue;
            r.trimmedPackets += ctrl->trimStats().packetsTrimmed;
            r.bytesTrimmed += ctrl->trimStats().bytesTrimmed;
            r.poolingArms += ctrl->stats().poolingArms;
        }
    }

    r.avgInterReadLatency = system.interClusterReadLatency().mean();
    r.interReads = system.interClusterReadLatency().count();
    r.remoteReads = system.remoteReads();
    r.localReads = system.localReads();
    r.pageWalks = system.pageWalks();
    r.meanWalkLength = system.meanWalkLength();

    const stats::Distribution dist = system.remoteReadBytesNeeded();
    for (std::size_t i = 0; i < 5; ++i)
        r.bytesNeededFrac[i] = dist.fraction(i);

    const sim::ShardedEngine &engines = system.engines();
    r.shards = engines.numShards();
    r.quantaExecuted = engines.quantaExecuted();
    r.barrierStallTicks = engines.totalBarrierStallTicks();
    r.crossShardFlits = system.network().crossShardFlits();
    r.maxIngressDepth = system.network().maxIngressDepth();
    r.barrierRoundsSkipped = engines.barrierRoundsSkipped();
    r.idleParks = engines.idleParks();
    r.workThreads = engines.workThreads();
    r.coveredStallTicks = engines.coveredStallTicks();
    r.residualStallTicks = engines.residualStallTicks();
    r.adaptiveWindowSamples = engines.windowTicksAvg().count();
    r.adaptiveWindowMean = engines.windowTicksAvg().mean();
    r.adaptiveWindowMax = engines.windowTicksAvg().max();
    for (unsigned s = 0; s < engines.numShards(); ++s) {
        const sim::Engine &engine = engines.shard(s);
        r.nearEvents += engine.queue().nearScheduled();
        r.farEvents += engine.queue().farScheduled();
        r.callbackPoolHighWater += engine.callbackPoolHighWater();
        r.callbackArenaBytes += engine.callbackArenaBytes();
    }
    const auto &packet_pool = sim::ObjectPool<noc::Packet>::local();
    const auto &flit_pool = sim::ObjectPool<noc::Flit>::local();
    r.packetPoolHighWater = packet_pool.highWater();
    r.flitPoolHighWater = flit_pool.highWater();
    r.poolArenaBytes = packet_pool.arenaBytes() + flit_pool.arenaBytes();
    r.smallFnHeapAllocs = sim::SmallFn::heapAllocations();

    r.wireFlitsDelivered =
        system.network().interClusterFlitsDelivered();
    r.wireBytesDelivered =
        system.network().interClusterBytesDelivered();

    r.fidelity = system.fidelity();
    if (const flow::FidelityController *ctl = system.flowController()) {
        const flow::FlowLaneStats &fs = ctl->stats();
        r.flowPackets = fs.flowPackets;
        r.flowCyclePackets = fs.cyclePackets;
        r.flowPacketsDelivered = fs.flowPacketsDelivered;
        r.flowBytesInjected = fs.flowBytesInjected;
        r.flowBytesDelivered = fs.flowBytesDelivered;
        r.flowEpochsClosed = fs.epochsClosed;
        r.flowLaneActivations = fs.laneActivations;
        r.flowLaneEscalations = fs.laneEscalations;
        r.flowRecomputes = fs.recomputes;
        r.flowMd1WaitTicks = fs.md1WaitTicks;
        r.flowFifoWaitTicks = fs.fifoWaitTicks;
        // Flow-lane trim folds into the headline trim census so
        // figure extraction is fidelity-agnostic.
        r.trimmedPackets += ctl->trimStats().packetsTrimmed;
        r.bytesTrimmed += ctl->trimStats().bytesTrimmed;
    }

    // Host-time self-profiling census. The board accumulates zeros
    // unless profiling was armed, so the columns are free otherwise.
    const obs::ProgressBoard &board = engines.progressBoard();
    r.phaseExecuteSeconds = board.phaseSeconds(obs::Phase::Execute);
    r.phaseBarrierWaitSeconds =
        board.phaseSeconds(obs::Phase::BarrierWait);
    r.phaseIngressSeconds = board.phaseSeconds(obs::Phase::Ingress);
    r.phaseExportSeconds = board.phaseSeconds(obs::Phase::Export);
}

/** Write the per-run trace artifacts and fill the trace census. */
void
exportTraceArtifacts(RunResult &r, gpu::MultiGpuSystem &system,
                     const obs::TraceOptions &trace,
                     const std::string &name,
                     const config::SystemConfig &cfg, double scale)
{
    if (system.traceSink() != nullptr) {
        const auto t_export = std::chrono::steady_clock::now();
        const obs::TraceSink &sink = *system.traceSink();
        const std::vector<obs::TraceRecord> merged = sink.merged();
        r.traceRecords = sink.totalRecords();
        r.traceDropped = sink.totalDropped();
        if (r.traceDropped > 0) {
            NC_WARN("trace ring overflow: ", r.traceDropped, " of ",
                    r.traceRecords + r.traceDropped,
                    " records dropped for ", name,
                    " - raise TraceOptions::bufferCap or lower the "
                    "trace level");
        }

        obs::TimeSeries series;
        if (trace.sampleInterval > 0) {
            series = obs::IntervalSampler(trace.sampleInterval)
                         .sample(merged, sink.laneNames());
            r.sampleRows = series.rows.size();
        }

        if (!trace.outDir.empty()) {
            std::filesystem::create_directories(trace.outDir);
            const std::string base = traceFileBase(
                trace, name, cfg, scale, system.numShards());
            {
                std::ofstream os(base + ".trace.json");
                obs::writeSimChromeTrace(merged, sink.laneNames(), os);
            }
            {
                std::ofstream os(base + ".host.trace.json");
                obs::writeHostChromeTrace(system.engines(), os);
            }
            if (trace.sampleInterval > 0) {
                std::ofstream os(base + ".timeseries.csv");
                obs::writeTimeSeriesCsv(series, os);
            }
            {
                // Lifecycle stats only: the full collectStats() registry
                // also carries host-execution diagnostics (barrier
                // stalls, pool high-water marks) that legitimately vary
                // with the shard count, and this file must stay
                // byte-identical across shard counts.
                stats::Registry reg;
                obs::foldLifecycle(merged, reg);
                std::ofstream os(base + ".stats.json");
                obs::writeRegistryJson(reg, os);
            }
        }

        // Export runs after collectSystemStats read the board, so the
        // result column is stamped here as well as booked into the
        // board (which the heartbeat sampler reads live).
        const auto ns = std::chrono::duration_cast<
            std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t_export);
        system.engines().addPhaseNanos(
            obs::Phase::Export, static_cast<std::uint64_t>(ns.count()));
        r.phaseExportSeconds +=
            static_cast<double>(ns.count()) * 1e-9;
    }
}

/** Stamp the host wall-clock diagnostics. */
void
finishTiming(RunResult &r,
             std::chrono::steady_clock::time_point t_start)
{
    const auto t_end = std::chrono::steady_clock::now();
    r.wallSeconds =
        std::chrono::duration<double>(t_end - t_start).count();
    if (r.wallSeconds > 0) {
        r.eventsPerSecond =
            static_cast<double>(r.events) / r.wallSeconds;
    }
}

/**
 * Parse one NETCRAFTER_THREADS value: 0 (one thread per shard) or a
 * positive executor-thread count (capped at 65536; the engine clamps
 * to the shard count). Negative numbers and garbage are fatal.
 */
unsigned
parseThreadsEnv(const char *text)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    // 0 is legal: one thread per shard, the default mapping.
    if (end == text || *end != '\0' || v < 0 || v > (1L << 16)) {
        NC_FATAL("NETCRAFTER_THREADS must be 0 (one per shard) or a "
                 "positive executor-thread count, got '", text, "'");
    }
    return static_cast<unsigned>(v);
}

} // namespace

RunOptions
RunOptions::fromEnv()
{
    RunOptions o;
    if (const char *env = std::getenv("NETCRAFTER_SCALE"))
        o.scale = parseScaleEnv(env);
    if (const char *env = std::getenv("NETCRAFTER_SHARDS"))
        o.shards = parseShardsEnv(env);
    if (const char *env = std::getenv("NETCRAFTER_THREADS"))
        o.exec.threads = parseThreadsEnv(env);
    // An empty fidelity counts as unset, not as garbage.
    if (const char *env = std::getenv("NETCRAFTER_FIDELITY");
        env != nullptr && *env != '\0')
        o.fidelity = flow::parseFidelityOrDie(env, "NETCRAFTER_FIDELITY");
    if (const char *env = std::getenv("NETCRAFTER_TRACE_OUT"))
        o.trace.outDir = env;
    if (const char *env = std::getenv("NETCRAFTER_SAMPLE_INTERVAL")) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(env, &end, 10);
        if (end == env || *end != '\0') {
            NC_FATAL("NETCRAFTER_SAMPLE_INTERVAL must be a "
                     "non-negative tick count, got '", env, "'");
        }
        o.trace.sampleInterval = static_cast<Tick>(v);
    }
    if (const char *env = std::getenv("NETCRAFTER_TRACE_LEVEL"))
        o.trace.level = obs::TraceOptions::parseLevel(env);
    else if (!o.trace.outDir.empty() || o.trace.sampleInterval > 0)
        o.trace.level = obs::TraceLevel::Packets;
    return o;
}

RunResult
runWorkload(const std::string &workload_name,
            const config::SystemConfig &cfg, double scale,
            unsigned shards, const obs::TraceOptions &trace,
            const sim::ExecPolicy &exec, flow::Fidelity fidelity,
            const sim::SyncPolicy & /*sync*/)
{
    return runWorkload(workload_name, cfg,
                       RunOptions{scale, shards, trace, exec, fidelity});
}

RunResult
runWorkload(const std::string &workload_name,
            const config::SystemConfig &cfg, const RunOptions &opts)
{
    obs::Telemetry::instance().ensureStartedFromEnv();
    const auto t_start = std::chrono::steady_clock::now();
    const std::uint64_t warn0 = netcrafter::suppressedWarnCount();

    auto workload = workloads::makeWorkload(workload_name);
    gpu::MultiGpuSystem system(cfg, opts.shards, opts.trace, opts.exec,
                               opts.fidelity);
    system.run(*workload, opts.scale);

    RunResult r;
    r.workload = workload_name;
    collectSystemStats(r, system, cfg);
    r.warningsSuppressed = netcrafter::suppressedWarnCount() - warn0;
    exportTraceArtifacts(r, system, opts.trace, workload_name, cfg,
                         opts.scale);
    finishTiming(r, t_start);
    return r;
}

RunResult
runServe(const serve::ServeConfig &serve,
         const config::SystemConfig &cfg, const RunOptions &opts)
{
    NC_ASSERT(serve.enabled, "runServe with serving disabled");
    obs::Telemetry::instance().ensureStartedFromEnv();
    const auto t_start = std::chrono::steady_clock::now();
    const std::uint64_t warn0 = netcrafter::suppressedWarnCount();

    gpu::MultiGpuSystem system(cfg, opts.shards, opts.trace, opts.exec,
                               opts.fidelity);
    serve::ServeSession session(system, serve, opts.scale);
    const serve::ServeReport report = session.run();
    if (report.status != sim::RunStatus::Drained) {
        NC_FATAL("serving run (", serve.toString(),
                 ") exceeded the cycle limit - the offered load is "
                 "beyond saturation or the limit is undersized");
    }

    RunResult r;
    r.workload =
        std::string("serve-") + serve::arrivalKindName(serve.arrival);
    collectSystemStats(r, system, cfg);
    r.warningsSuppressed = netcrafter::suppressedWarnCount() - warn0;

    r.offeredLoad = serve.offeredLoad;
    r.serveInjected = report.injected;
    r.serveMeasured = report.measured;
    r.serveCompleted = report.completed;
    r.servePeakInflight = report.peakInflight;
    r.serveThroughput = report.throughput;
    auto toResult = [](const serve::ClassLatency &c) {
        ServeClassResult out;
        out.measured = c.measured;
        out.meanLatency = c.meanLatency;
        out.p50 = c.p50;
        out.p95 = c.p95;
        out.p99 = c.p99;
        out.p999 = c.p999;
        return out;
    };
    for (std::size_t c = 0; c < serve::kNumTrafficClasses; ++c)
        r.serveClasses[c] = toResult(report.perClass[c]);
    r.serveClasses[3] = toResult(report.aggregate);

    exportTraceArtifacts(r, system, opts.trace, r.workload, cfg,
                         opts.scale);
    finishTiming(r, t_start);
    return r;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        NC_ASSERT(x > 0, "geomean of non-positive value");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

namespace {

/** strtod() over all of @p text; NaN when anything is left over. */
double
parseWhole(const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    return end == text || *end != '\0' ? std::nan("") : v;
}

} // namespace

double
parseScaleEnv(const char *text, const char *what)
{
    const double v = parseWhole(text);
    if (!std::isfinite(v) || v <= 0) {
        NC_FATAL(what, " must be a positive finite number, got '", text,
                 "'");
    }
    return v;
}

double
parseTolerancePct(const char *text, const char *what)
{
    const double v = parseWhole(text);
    if (!std::isfinite(v) || v < 0) {
        NC_FATAL(what, " must be a non-negative finite number, got '",
                 text, "'");
    }
    return v;
}

unsigned
parseShardsEnv(const char *text)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    // strtol saturates overflow at LONG_MAX, so the upper check also
    // rejects absurdly long digit strings.
    if (end == text || *end != '\0' || v < 1 || v > (1L << 16)) {
        NC_FATAL("NETCRAFTER_SHARDS must be a positive shard count, "
                 "got '", text, "'");
    }
    return static_cast<unsigned>(v);
}

bool
sameMeasurement(const RunResult &a, const RunResult &b)
{
    return a.workload == b.workload && a.cycles == b.cycles &&
           a.events == b.events && a.eventLedger == b.eventLedger &&
           a.instructions == b.instructions &&
           a.l1ReadAccesses == b.l1ReadAccesses &&
           a.l1ReadMisses == b.l1ReadMisses && a.l1Mpki == b.l1Mpki &&
           a.interFlits == b.interFlits &&
           a.interWireBytes == b.interWireBytes &&
           a.interUsefulBytes == b.interUsefulBytes &&
           a.interUtilization == b.interUtilization &&
           a.ptwByteFraction == b.ptwByteFraction &&
           a.paddedFlitFraction == b.paddedFlitFraction &&
           a.quarterPaddedFraction == b.quarterPaddedFraction &&
           a.threeQuarterPaddedFraction == b.threeQuarterPaddedFraction &&
           a.stitchedFraction == b.stitchedFraction &&
           a.stitchedPieces == b.stitchedPieces &&
           a.trimmedPackets == b.trimmedPackets &&
           a.bytesTrimmed == b.bytesTrimmed &&
           a.poolingArms == b.poolingArms &&
           a.avgInterReadLatency == b.avgInterReadLatency &&
           a.interReads == b.interReads &&
           a.remoteReads == b.remoteReads &&
           a.localReads == b.localReads && a.pageWalks == b.pageWalks &&
           a.meanWalkLength == b.meanWalkLength &&
           a.bytesNeededFrac == b.bytesNeededFrac &&
           a.offeredLoad == b.offeredLoad &&
           a.serveInjected == b.serveInjected &&
           a.serveMeasured == b.serveMeasured &&
           a.serveCompleted == b.serveCompleted &&
           a.servePeakInflight == b.servePeakInflight &&
           a.serveThroughput == b.serveThroughput &&
           a.serveClasses == b.serveClasses;
    // Everything below the serveClasses field in RunResult is a
    // diagnostic of how the simulator executed, not what it simulated:
    // wall-clock rates, the sharded-execution census, and queue/pool
    // gauges whose per-shard splits depend on the shard count. A
    // serial and a sharded run must compare equal here.
}

} // namespace netcrafter::harness
