#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "src/exp/figures.hh"
#include "src/exp/result_cache.hh"
#include "src/exp/scheduler.hh"
#include "src/gpu/system.hh"
#include "src/noc/network.hh"
#include "src/obs/progress_board.hh"
#include "src/sim/small_fn.hh"
#include "src/workloads/workload.hh"

namespace perfbench {

using namespace netcrafter;

namespace {

/**
 * Per-point problem sizes. The grids run long points so the simulator's
 * hot path dominates; the sweep runs many short points so construction,
 * collection, scheduling and the cache carry a visible share.
 */
constexpr double kGridSerialScale = 0.25;
constexpr double kGridShardedScale = 0.5;
constexpr double kSweepScale = 0.05;
constexpr unsigned kShards = 4;

/**
 * Executor threads of grid-sharded: one, home to all four shards, so
 * every round still runs the window decision, the mailbox seal and the
 * cross-shard ingress, but no thread waits on another. On the shared
 * 4-CPU reference host, hypervisor steal on any vCPU stalled every
 * barrier of a multi-threaded run: whole runs took up to 5.6x (4
 * threads) or 1.9x (2 threads) their quiet time, and the wall-time
 * spread over ten seeds reached 0.60 and 0.48, beyond any usable bound.
 */
constexpr unsigned kShardThreads = 1;
constexpr unsigned kSweepWorkers = 4;

/** fig22's bandwidth pairs (intra:inter GB/s) other than the baseline. */
struct BwPair
{
    double intra;
    double inter;
};
constexpr BwPair kFig22Pairs[] = {{256, 32}, {512, 64}, {128, 32},
                                  {128, 64}};

config::SystemConfig
seeded(config::SystemConfig cfg, std::uint64_t seed)
{
    cfg.seed = seed;
    return cfg;
}

/** Sum of every registry counter whose name ends with @p suffix. */
double
sumSuffix(const stats::Registry &reg, const std::string &suffix)
{
    double sum = 0;
    for (const auto &[name, counter] : reg.counters()) {
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += static_cast<double>(counter.value());
    }
    return sum;
}

double
counter(const stats::Registry &reg, const std::string &name)
{
    auto it = reg.counters().find(name);
    return it == reg.counters().end()
               ? 0.0
               : static_cast<double>(it->second.value());
}

/** Read every statistic the benchmark reports from a finished system. */
void
readCensus(const gpu::MultiGpuSystem &sys, PointResult &r)
{
    const stats::Registry reg = sys.collectStats();
    Counts &c = r.counts;
    c["cycles"] = counter(reg, "system.cycles");
    c["events"] = counter(reg, "system.events");
    c["instructions"] = counter(reg, "system.instructions");
    c["near_events"] = counter(reg, "sim.nearEvents");
    c["far_events"] = counter(reg, "sim.farEvents");
    c["l1_read_accesses"] = sumSuffix(reg, ".l1.readAccesses");
    c["l1_read_misses"] = sumSuffix(reg, ".l1.readMisses");
    c["l2_accesses"] = sumSuffix(reg, ".l2.accesses");
    c["l2_misses"] = sumSuffix(reg, ".l2.misses");
    c["dram_accesses"] = sumSuffix(reg, ".dram.accesses");
    c["l2tlb_hits"] = sumSuffix(reg, ".l2tlb.hits");
    c["l2tlb_misses"] = sumSuffix(reg, ".l2tlb.misses");
    c["page_walks"] = sumSuffix(reg, ".gmmu.walks");
    c["pte_fetches"] = sumSuffix(reg, ".gmmu.pteFetches");
    c["quanta"] = counter(reg, "sharded.quantaExecuted");
    c["rounds_skipped"] = counter(reg, "sharded.barrierRoundsSkipped");
    c["barrier_stall_ticks"] = counter(reg, "sharded.barrierStallTicks");
    c["residual_stall_ticks"] =
        counter(reg, "sharded.residualStallTicks");
    c["cross_shard_flits"] = counter(reg, "sharded.crossShardFlits");
    c["inter_flits_delivered"] =
        counter(reg, "network.interClusterFlitsDelivered");
    c["inter_bytes_delivered"] =
        counter(reg, "network.interClusterBytesDelivered");
    const auto lat = reg.averages().find("system.interReadLatency");
    if (lat != reg.averages().end()) {
        c["inter_reads"] = static_cast<double>(lat->second.count());
        c["inter_read_latency_sum"] = lat->second.sum();
    }

    const noc::Network &net = sys.network();
    const noc::TrafficMonitor census = net.aggregateInterClusterTraffic();
    c["inter_flits"] = static_cast<double>(census.totalFlits());
    c["inter_wire_bytes"] = static_cast<double>(census.totalWireBytes());
    c["inter_useful_bytes"] =
        static_cast<double>(census.totalUsefulBytes());
    c["stitched_pieces"] = static_cast<double>(census.stitchedPieces());
    c["inter_utilization"] = net.interClusterUtilization();
    const config::SystemConfig &cfg = sys.cfg();
    for (ClusterId from = 0; from < cfg.numClusters; ++from) {
        for (ClusterId to = 0; to < cfg.numClusters; ++to) {
            const auto *ctrl = from == to ? nullptr
                                          : net.controller(from, to);
            if (ctrl == nullptr)
                continue;
            c["trimmed_packets"] +=
                static_cast<double>(ctrl->trimStats().packetsTrimmed);
            c["bytes_trimmed"] +=
                static_cast<double>(ctrl->trimStats().bytesTrimmed);
            c["pooling_arms"] +=
                static_cast<double>(ctrl->stats().poolingArms);
        }
    }

    r.diag["callback_arena_bytes"] =
        counter(reg, "sim.callbackArenaBytes");
    r.diag["pool_arena_bytes"] = counter(reg, "sim.poolArenaBytes");
    const obs::ProgressBoard &board = sys.engines().progressBoard();
    r.diag["phase_execute_s"] = board.phaseSeconds(obs::Phase::Execute);
    r.diag["phase_barrier_wait_s"] =
        board.phaseSeconds(obs::Phase::BarrierWait);
    r.diag["phase_ingress_s"] = board.phaseSeconds(obs::Phase::Ingress);
}

/** The same counts, from a scheduler result (sweep jobs). */
void
countsOf(const harness::RunResult &rr, PointResult &r)
{
    Counts &c = r.counts;
    c["cycles"] = static_cast<double>(rr.cycles);
    c["events"] = static_cast<double>(rr.events);
    c["instructions"] = static_cast<double>(rr.instructions);
    c["near_events"] = static_cast<double>(rr.nearEvents);
    c["far_events"] = static_cast<double>(rr.farEvents);
    c["l1_read_accesses"] = static_cast<double>(rr.l1ReadAccesses);
    c["l1_read_misses"] = static_cast<double>(rr.l1ReadMisses);
    c["page_walks"] = static_cast<double>(rr.pageWalks);
    c["pte_fetches"] = static_cast<double>(std::llround(
        rr.meanWalkLength * static_cast<double>(rr.pageWalks)));
    c["inter_flits"] = static_cast<double>(rr.interFlits);
    c["inter_wire_bytes"] = static_cast<double>(rr.interWireBytes);
    c["inter_useful_bytes"] = static_cast<double>(rr.interUsefulBytes);
    c["inter_flits_delivered"] =
        static_cast<double>(rr.wireFlitsDelivered);
    c["inter_bytes_delivered"] =
        static_cast<double>(rr.wireBytesDelivered);
    c["inter_utilization"] = rr.interUtilization;
    c["inter_reads"] = static_cast<double>(rr.interReads);
    c["inter_read_latency_sum"] =
        rr.avgInterReadLatency * static_cast<double>(rr.interReads);
    c["stitched_pieces"] = static_cast<double>(rr.stitchedPieces);
    c["trimmed_packets"] = static_cast<double>(rr.trimmedPackets);
    c["bytes_trimmed"] = static_cast<double>(rr.bytesTrimmed);
    c["pooling_arms"] = static_cast<double>(rr.poolingArms);
    r.diag["callback_arena_bytes"] =
        static_cast<double>(rr.callbackArenaBytes);
    r.diag["pool_arena_bytes"] = static_cast<double>(rr.poolArenaBytes);
}

/** Conservation: every inter-cluster flit and byte sent was delivered. */
void
checkConservation(PointResult &r)
{
    const Counts &c = r.counts;
    if (c.at("inter_flits") != c.at("inter_flits_delivered") ||
        c.at("inter_wire_bytes") != c.at("inter_bytes_delivered")) {
        r.ok = false;
        r.failure = "inter-cluster flits/bytes sent != delivered";
    }
}

std::vector<exp::SweepSpec>
evalSweepSpecs(std::uint64_t seed)
{
    const std::vector<std::string> apps = workloads::workloadNames();
    const config::SystemConfig base =
        seeded(config::baselineConfig(), seed);
    const config::SystemConfig full =
        seeded(exp::fullNetcrafter(), seed);

    std::vector<exp::SweepSpec> specs;
    specs.emplace_back("fig03");
    specs.back().addGrid(
        apps,
        {{"base", base}, {"ideal", seeded(config::idealConfig(), seed)}},
        kSweepScale);
    specs.emplace_back("fig09");
    specs.back().addGrid(apps, {{"base", base}}, kSweepScale);
    specs.emplace_back("fig14");
    specs.back().addGrid(
        apps,
        {{"base", base},
         {"stitch", seeded(exp::stitchSelective32(), seed)},
         {"trim", seeded(exp::stitchTrim(), seed)},
         {"full", full},
         {"sector", seeded(config::sectorCacheConfig(16), seed)}},
        kSweepScale);
    std::vector<exp::ConfigPoint> bw;
    for (std::size_t i = 0; i < std::size(kFig22Pairs); ++i) {
        config::SystemConfig b = base, f = full;
        b.intraClusterGBps = f.intraClusterGBps = kFig22Pairs[i].intra;
        b.interClusterGBps = f.interClusterGBps = kFig22Pairs[i].inter;
        bw.push_back({"base" + std::to_string(i), b});
        bw.push_back({"full" + std::to_string(i), f});
    }
    specs.emplace_back("fig22");
    specs.back().addGrid(apps, bw, kSweepScale);
    return specs;
}

PassResult
runGridPass(const WorkloadDef &w, Spans *spans)
{
    PassResult pass;
    pass.traced = spans != nullptr;
    const std::size_t first_span = spans ? spans->size() : 0;
    Section whole(spans, "bench.pass", w.name);
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        pass.points.push_back(runGridPoint(w, w.points[i], spans,
                                           whole.id(),
                                           static_cast<int>(i)));
    }
    pass.wallSeconds = whole.close();
    if (spans)
        pass.selfSeconds = spans->selfSecondsByLayer(first_span);
    return pass;
}

/**
 * Jobs run inside the scheduler, so their spans are laid afterwards from
 * the scheduler's own timings, each on the first free worker lane.
 */
void
addJobSpans(Spans &spans, const exp::SweepResult &res,
            Clock::time_point epoch, unsigned workers, int parent,
            const std::vector<PointResult> &points,
            std::size_t first_point)
{
    const auto at = [&](double s) {
        return epoch + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(s));
    };
    std::vector<std::size_t> order(res.timings.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return res.timings[a].startSeconds <
                         res.timings[b].startSeconds;
              });
    std::vector<double> lane_free(workers, 0.0);
    for (std::size_t i : order) {
        const exp::JobTiming &t = res.timings[i];
        std::size_t lane = 0;
        while (lane + 1 < lane_free.size() &&
               lane_free[lane] > t.startSeconds)
            ++lane;
        lane_free[lane] = t.startSeconds + t.seconds;
        const int id = spans.open(
            "exp.job", points[first_point + i].name, parent,
            static_cast<int>(first_point + i), at(t.startSeconds),
            static_cast<unsigned>(lane + 1));
        spans.close(id, at(t.startSeconds + t.seconds));
    }
}

PassResult
runSweepPass(const WorkloadDef &w, Spans *spans)
{
    PassResult pass;
    pass.traced = spans != nullptr;
    const std::size_t first_span = spans ? spans->size() : 0;
    Section whole(spans, "bench.pass", w.name);

    exp::SchedulerOptions opts;
    opts.workers = w.workers;
    opts.shards = 1;
    opts.progress = exp::ProgressMode::Off;
    opts.fidelity = flow::Fidelity::Cycle;
    opts.sync = sim::SyncPolicy{};
    exp::ResultCache cache;
    const Clock::time_point epoch = Clock::now();
    exp::Scheduler scheduler(opts, &cache);

    double job_seconds = 0, sweep_seconds = 0;
    for (const exp::SweepSpec &spec : w.specs) {
        Section sweep(spans, "exp.sweep", spec.name(), whole.id());
        const exp::SweepResult res = scheduler.run(spec);
        const double spec_end =
            std::chrono::duration<double>(Clock::now() - epoch).count();
        sweep_seconds += sweep.close();

        // Worker seconds idle after the last job of this sweep started.
        double last_start = 0;
        for (const exp::JobTiming &t : res.timings)
            last_start = std::max(last_start, t.startSeconds);
        double tail_busy = 0;
        for (const exp::JobTiming &t : res.timings) {
            job_seconds += t.seconds;
            tail_busy += std::max(
                0.0, std::min(t.startSeconds + t.seconds, spec_end) -
                         std::max(t.startSeconds, last_start));
        }
        const double threads = static_cast<double>(
            std::min<std::size_t>(w.workers, spec.size()));
        pass.tailIdleSeconds += std::max(
            0.0, threads * (spec_end - last_start) - tail_busy);
        pass.cacheHits += res.cacheHits;
        pass.cacheMisses += res.cacheMisses;

        const std::size_t first_point = pass.points.size();
        for (std::size_t i = 0; i < spec.size(); ++i) {
            const exp::JobTiming &t = res.timings[i];
            PointResult r;
            r.name = spec.name() + "/" + spec.jobs()[i].name;
            r.simulated = !t.cacheHit;
            r.seconds = t.seconds;
            r.run = res.results[i];
            countsOf(r.run, r);
            checkConservation(r);
            pass.points.push_back(std::move(r));
        }
        if (spans)
            addJobSpans(*spans, res, epoch, w.workers, sweep.id(),
                        pass.points, first_point);
    }
    pass.wallSeconds = whole.close();
    pass.busyFrac =
        job_seconds / (static_cast<double>(w.workers) * sweep_seconds);
    if (spans)
        pass.selfSeconds = spans->selfSecondsByLayer(first_span);
    return pass;
}

} // namespace

bool
makeWorkloadDef(const std::string &name, std::uint64_t seed,
                WorkloadDef &out)
{
    const std::vector<std::string> apps = workloads::workloadNames();
    WorkloadDef w;
    w.name = name;
    if (name == "grid-serial") {
        w.scale = kGridSerialScale;
        w.nominalPassSeconds = 3.0;
        for (const auto &[label, cfg] :
             {std::pair{"base", config::baselineConfig()},
              std::pair{"full", exp::fullNetcrafter()}}) {
            for (const std::string &app : apps)
                w.points.push_back({label, app, seeded(cfg, seed)});
        }
    } else if (name == "grid-sharded") {
        w.scale = kGridShardedScale;
        w.nominalPassSeconds = 3.0;
        w.shards = kShards;
        w.exec.threads = kShardThreads;
        w.hostThreads = kShardThreads;
        config::SystemConfig cfg = seeded(config::baselineConfig(), seed);
        cfg.numClusters = kShards;
        cfg.gpusPerCluster = 1;
        for (const std::string &app : apps)
            w.points.push_back({"base", app, cfg});
    } else if (name == "eval-sweep") {
        w.sweep = true;
        w.scale = kSweepScale;
        w.nominalPassSeconds = 3.0;
        w.workers = kSweepWorkers;
        w.hostThreads = kSweepWorkers;
        // fig09's base column and fig14's repeat fig03's 15 base points.
        w.expectedCacheHits = 30;
        w.specs = evalSweepSpecs(seed);
        for (const exp::SweepSpec &spec : w.specs) {
            for (const exp::Job &job : spec.jobs()) {
                w.points.push_back(
                    {spec.name() + "/" + job.name.substr(
                                             0, job.name.find('/')),
                     job.workload, job.config});
            }
        }
    } else {
        return false;
    }
    out = std::move(w);
    return true;
}

PointResult
runGridPoint(const WorkloadDef &w, const Point &p, Spans *spans,
             int parent, int point_id)
{
    PointResult r;
    r.name = p.name();
    Section whole(spans, "bench.point", r.name, parent, point_id);

    Section make(spans, "workloads.make", r.name, whole.id(), point_id);
    workloads::WorkloadPtr workload = workloads::makeWorkload(p.app);
    make.close();

    Section construct(spans, "gpu.construct", r.name, whole.id(),
                      point_id);
    auto sys = std::make_unique<gpu::MultiGpuSystem>(
        p.cfg, w.shards, obs::TraceOptions{}, w.exec,
        flow::Fidelity::Cycle, sim::SyncPolicy{});
    r.constructSeconds = construct.close();
    if (spans)
        sys->engines().setProfilingEnabled(true);

    const std::uint64_t heap0 = sim::SmallFn::heapAllocations();
    Section run(spans, "gpu.run", r.name, whole.id(), point_id);
    const sim::RunStatus status = sys->runFor(*workload, w.scale);
    r.runSeconds = run.close();

    Section collect(spans, "harness.collect", r.name, whole.id(),
                    point_id);
    readCensus(*sys, r);
    r.collectSeconds = collect.close();
    r.diag["smallfn_heap_allocs"] = static_cast<double>(
        sim::SmallFn::heapAllocations() - heap0);

    if (status != sim::RunStatus::Drained ||
        sys->outstandingRequests() != 0) {
        r.ok = false;
        r.failure = "runFor did not drain";
    } else {
        checkConservation(r);
    }

    Section teardown(spans, "gpu.teardown", r.name, whole.id(),
                     point_id);
    sys.reset();
    workload.reset();
    teardown.close();
    r.seconds = whole.close();
    return r;
}

PassResult
runPass(const WorkloadDef &w, Spans *spans)
{
    return w.sweep ? runSweepPass(w, spans) : runGridPass(w, spans);
}

SetupResult
setupPass(const WorkloadDef &w, Spans *spans)
{
    SetupResult out;
    Section whole(spans, "bench.setup", w.name);
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const Point &p = w.points[i];
        const int id = static_cast<int>(i);
        Section make(spans, "workloads.make", p.name(), whole.id(), id);
        workloads::WorkloadPtr workload = workloads::makeWorkload(p.app);
        out.makeSeconds += make.close();

        Section construct(spans, "gpu.construct", p.name(), whole.id(),
                          id);
        auto sys = std::make_unique<gpu::MultiGpuSystem>(
            p.cfg, w.shards, obs::TraceOptions{}, w.exec,
            flow::Fidelity::Cycle, sim::SyncPolicy{});
        out.constructSeconds += construct.close();

        Section collect(spans, "harness.collect", p.name(), whole.id(),
                        id);
        const stats::Registry reg = sys->collectStats();
        out.collectSeconds += collect.close();

        Section teardown(spans, "gpu.teardown", p.name(), whole.id(), id);
        sys.reset();
        teardown.close();
    }
    whole.close();
    return out;
}

} // namespace perfbench
