/**
 * @file
 * Hot-path performance harness: runs the Figure 14 workload set
 * (every Table 3 app under the cumulative-mechanism configurations)
 * serially and reports simulator throughput — events per host second
 * and wall-time per figure point — as machine-readable JSON.
 *
 * The JSON seeds the repo's perf trajectory: each entry in
 * BENCH_hotpath.json is one (config, workload) point, plus aggregate
 * totals. Compare the aggregate "events_per_second" across commits to
 * track hot-path regressions; the simulated figures themselves must
 * stay bit-identical while this number grows.
 *
 * Usage:
 *   perf_hotpath [--out FILE] [--quick] [--scale S]
 *                [--shards] [--obs [--ref FILE]] [--flow]
 *
 *   --out FILE   write JSON to FILE (default BENCH_hotpath.json;
 *                BENCH_parallel.json with --shards, BENCH_obs.json
 *                with --obs, BENCH_flow.json with --flow)
 *   --quick      baseline + full NetCrafter configs only (CI smoke)
 *   --scale S    extra problem-size multiplier on top of
 *                NETCRAFTER_SCALE (default 1.0)
 *   --shards     parallel-scaling mode: run the figure 14 grid on a
 *                4-cluster topology serially, at 2 and 4 engine shards
 *                with one executor thread per shard, and at 4 shards
 *                multiplexed on 1 and 2 threads. Reports events/s, the
 *                barrier census and the covered / residual stall split
 *                per point; every point's event census must match
 *                serial (census_identical). The JSON records host_cpus
 *                from the scheduling affinity mask: speedup over serial
 *                requires at least as many host cores as threads, so
 *                on a single-core host the sharded points only measure
 *                barrier overhead.
 *   --obs        observability-overhead mode: run the grid once with
 *                tracing disabled and once with packet-level tracing +
 *                interval sampling held in memory, and fail unless
 *                every measured statistic is identical. Writes
 *                BENCH_obs.json with both throughputs; with
 *                --ref BENCH_hotpath.json it also reports
 *                (informationally) whether the disabled-path
 *                throughput stayed within 2% of the reference.
 *   --ref FILE   reference BENCH_hotpath.json for --obs
 *   --flow       hybrid-fidelity mode: every grid point at cycle,
 *                hybrid and flow fidelity (single engine, default
 *                topology). Writes BENCH_flow.json with per-point
 *                events-eliminated and wall-clock speedup columns and
 *                the relative cycles error of each approximate mode;
 *                fails only on broken flow-lane conservation (accuracy
 *                is validate-fidelity's gate)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "src/config/system_config.hh"
#include "src/exp/export.hh"
#include "src/obs/json_validate.hh"
#include "src/obs/telemetry.hh"
#include "src/obs/trace.hh"
#include "src/sim/sharded_engine.hh"

namespace {

using netcrafter::config::SystemConfig;
using netcrafter::harness::RunResult;

struct Point
{
    std::string config;
    std::string workload;
    RunResult result;
};

double
eventsPerSecond(std::uint64_t events, double seconds)
{
    return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
}

/**
 * Parallel-scaling bench: the fig14 grid on a 4-cluster topology (one
 * GPU per cluster, so 4 shards partition it fully), swept over shard
 * counts at one executor thread per shard, then at 4 shards
 * multiplexed on fewer threads. Fails if any point's census diverges
 * from serial.
 */
int
runShardBench(const std::string &out_path, bool quick, double scale)
{
    using namespace netcrafter;

    std::vector<std::pair<std::string, SystemConfig>> configs = {
        {"base", config::baselineConfig()},
        {"full", bench::fullNetcrafter()},
    };
    if (!quick) {
        configs.insert(configs.begin() + 1,
                       {"stitch", bench::stitchSelective32()});
        configs.insert(configs.begin() + 2,
                       {"trim", bench::stitchTrim()});
        configs.push_back({"sector", config::sectorCacheConfig(16)});
    }
    // Same GPU count as the default topology, but one GPU per cluster
    // so every shard count up to 4 gets real work.
    for (auto &[name, cfg] : configs) {
        cfg.numClusters = 4;
        cfg.gpusPerCluster = 1;
    }

    struct ShardRow
    {
        std::string label;
        unsigned shards;
        unsigned threads;
        std::uint64_t events = 0;
        std::uint64_t cycles = 0;
        std::uint64_t quanta = 0;
        std::uint64_t stallTicks = 0;
        std::uint64_t coveredStall = 0;
        std::uint64_t residualStall = 0;
        std::uint64_t crossFlits = 0;
        std::uint64_t roundsSkipped = 0;
        std::uint64_t idleParks = 0;
        std::uint64_t windowSamples = 0;
        double windowTicksSum = 0;
        double windowTicksMax = 0;
        double wall = 0;
    };
    std::vector<ShardRow> rows = {
        {"serial", 1, 1}, {"s2-t2", 2, 2}, {"s4-t4", 4, 4},
        {"s4-t1", 4, 1},  {"s4-t2", 4, 2},
    };
    const std::string note =
        bench::undersubscribedNote("perf_hotpath --shards", 4);
    const obs::TraceOptions no_trace;
    bool census_ok = true;

    for (ShardRow &row : rows) {
        for (const auto &[cfg_name, cfg] : configs) {
            for (const auto &app : bench::apps()) {
                const RunResult r = harness::runWorkload(
                    app, cfg, scale, row.shards, no_trace,
                    sim::ExecPolicy{row.threads});
                row.events += r.events;
                row.cycles += r.cycles;
                row.quanta += r.quantaExecuted;
                row.stallTicks += r.barrierStallTicks;
                row.coveredStall += r.coveredStallTicks;
                row.residualStall += r.residualStallTicks;
                row.crossFlits += r.crossShardFlits;
                row.roundsSkipped += r.barrierRoundsSkipped;
                row.idleParks += r.idleParks;
                row.windowSamples += r.adaptiveWindowSamples;
                row.windowTicksSum += r.adaptiveWindowMean *
                    static_cast<double>(r.adaptiveWindowSamples);
                row.windowTicksMax =
                    std::max(row.windowTicksMax, r.adaptiveWindowMax);
                row.wall += r.wallSeconds;
            }
        }
        if (&row != &rows.front() &&
            (row.events != rows.front().events ||
             row.cycles != rows.front().cycles)) {
            std::cerr << "perf_hotpath: census diverged at "
                      << row.label << ": " << row.events << " events / "
                      << row.cycles << " cycles vs serial "
                      << rows.front().events << " / "
                      << rows.front().cycles << "\n";
            census_ok = false;
        }
        std::cerr << row.label << ": " << row.events << " events in "
                  << row.wall << "s ("
                  << eventsPerSecond(row.events, row.wall)
                  << " ev/s), residual stall " << row.residualStall
                  << "/" << row.stallTicks << "\n";
    }

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot open " << out_path << " for writing\n";
        return 1;
    }
    const unsigned host_cpus = bench::hostCpus();
    const double serial_evps =
        eventsPerSecond(rows.front().events, rows.front().wall);
    os.precision(17);
    os << "{\n";
    os << "  \"bench\": \"perf_parallel\",\n";
    os << "  \"workload_set\": \"fig14\",\n";
    os << "  \"topology\": \"4 clusters x 1 gpu\",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"scale\": " << scale << ",\n";
    os << "  \"env_scale\": " << netcrafter::harness::envScale()
       << ",\n";
    os << "  \"host_cpus\": " << host_cpus << ",\n";
    os << "  \"notes\": \"" << exp::jsonEscape(note) << "\",\n";
    os << "  \"census_identical\": " << (census_ok ? "true" : "false")
       << ",\n";
    os << "  \"points\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ShardRow &r = rows[i];
        os << (i ? ",\n    {" : "\n    {");
        os << "\"label\": \"" << exp::jsonEscape(r.label) << "\", "
           << "\"shards\": " << r.shards << ", "
           << "\"work_threads\": " << r.threads << ", "
           << "\"events\": " << r.events << ", "
           << "\"cycles\": " << r.cycles << ", "
           << "\"quanta_executed\": " << r.quanta << ", "
           << "\"barrier_stall_ticks\": " << r.stallTicks << ", "
           << "\"covered_stall_ticks\": " << r.coveredStall << ", "
           << "\"residual_stall_ticks\": " << r.residualStall << ", "
           << "\"cross_shard_flits\": " << r.crossFlits << ", "
           << "\"barrier_rounds_skipped\": " << r.roundsSkipped << ", "
           << "\"idle_parks\": " << r.idleParks << ", "
           << "\"mean_window_ticks\": "
           << (r.windowSamples > 0
                   ? r.windowTicksSum /
                         static_cast<double>(r.windowSamples)
                   : 0.0)
           << ", "
           << "\"max_window_ticks\": " << r.windowTicksMax << ", "
           << "\"wall_seconds\": " << r.wall << ", "
           << "\"events_per_second\": "
           << eventsPerSecond(r.events, r.wall) << ", "
           << "\"speedup_vs_serial\": "
           << (serial_evps > 0
                   ? eventsPerSecond(r.events, r.wall) / serial_evps
                   : 0.0)
           << "}";
    }
    os << "\n  ]\n}\n";

    std::cout << "perf_hotpath --shards: "
              << (census_ok ? "census identical across "
                            : "CENSUS DIVERGED across ")
              << rows.size() << " shard/thread points, host_cpus="
              << host_cpus << " (JSON: " << out_path << ")\n";
    return census_ok ? 0 : 1;
}

/**
 * Hybrid-fidelity bench: every fig14 grid point at cycle, hybrid and
 * flow fidelity on the default topology (flow lanes require a single
 * engine). Reports, per point and in aggregate, the events eliminated
 * by the flow lane and the wall-clock speedup of each approximate mode
 * over the cycle-accurate run, plus the relative cycles error so the
 * speed/accuracy trade is visible in one file. Writes BENCH_flow.json.
 * Accuracy is gated by validate-fidelity, not here; this bench fails
 * only if a run breaks flow-lane conservation.
 */
int
runFlowBench(const std::string &out_path, bool quick, double scale)
{
    using namespace netcrafter;

    std::vector<std::pair<std::string, SystemConfig>> configs = {
        {"base", config::baselineConfig()},
        {"full", bench::fullNetcrafter()},
    };
    if (!quick) {
        configs.insert(configs.begin() + 1,
                       {"stitch", bench::stitchSelective32()});
        configs.insert(configs.begin() + 2,
                       {"trim", bench::stitchTrim()});
        configs.push_back({"sector", config::sectorCacheConfig(16)});
    }

    struct FlowPoint
    {
        std::string config;
        std::string workload;
        RunResult cycle, hybrid, flow;
    };
    const obs::TraceOptions no_trace;
    const sim::ExecPolicy serial{0};
    std::vector<FlowPoint> points;
    bool conserved = true;

    auto conservationOk = [](const RunResult &r) {
        return r.flowPackets == r.flowPacketsDelivered &&
               r.flowBytesInjected == r.flowBytesDelivered;
    };

    for (const auto &[cfg_name, cfg] : configs) {
        for (const auto &app : bench::apps()) {
            FlowPoint p;
            p.config = cfg_name;
            p.workload = app;
            p.cycle = harness::runWorkload(app, cfg, scale, 1, no_trace,
                                           serial, flow::Fidelity::Cycle);
            p.hybrid = harness::runWorkload(app, cfg, scale, 1, no_trace,
                                            serial,
                                            flow::Fidelity::Hybrid);
            p.flow = harness::runWorkload(app, cfg, scale, 1, no_trace,
                                          serial, flow::Fidelity::Flow);
            if (!conservationOk(p.hybrid) || !conservationOk(p.flow)) {
                std::cerr << "perf_hotpath --flow: conservation broken "
                             "at "
                          << cfg_name << "/" << app << "\n";
                conserved = false;
            }
            std::cerr << cfg_name << "/" << app << ": "
                      << p.cycle.events << " ev cycle, " << p.flow.events
                      << " ev flow ("
                      << (p.flow.wallSeconds > 0
                              ? p.cycle.wallSeconds / p.flow.wallSeconds
                              : 0.0)
                      << "x wall)\n";
            points.push_back(std::move(p));
        }
    }

    std::uint64_t cyc_events = 0, hyb_events = 0, flo_events = 0;
    double cyc_wall = 0, hyb_wall = 0, flo_wall = 0;
    for (const FlowPoint &p : points) {
        cyc_events += p.cycle.events;
        hyb_events += p.hybrid.events;
        flo_events += p.flow.events;
        cyc_wall += p.cycle.wallSeconds;
        hyb_wall += p.hybrid.wallSeconds;
        flo_wall += p.flow.wallSeconds;
    }

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot open " << out_path << " for writing\n";
        return 1;
    }
    auto relerr = [](std::uint64_t approx, std::uint64_t exact) {
        if (exact == 0)
            return 0.0;
        const double d = static_cast<double>(approx) -
                         static_cast<double>(exact);
        return d / static_cast<double>(exact);
    };
    os.precision(17);
    os << "{\n";
    os << "  \"bench\": \"perf_flow\",\n";
    os << "  \"workload_set\": \"fig14\",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"scale\": " << scale << ",\n";
    os << "  \"env_scale\": " << harness::envScale() << ",\n";
    os << "  \"conservation_exact\": " << (conserved ? "true" : "false")
       << ",\n";
    os << "  \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const FlowPoint &p = points[i];
        os << (i ? ",\n    {" : "\n    {");
        os << "\"config\": \"" << exp::jsonEscape(p.config) << "\", "
           << "\"workload\": \"" << exp::jsonEscape(p.workload)
           << "\", "
           << "\"cycle_events\": " << p.cycle.events << ", "
           << "\"hybrid_events\": " << p.hybrid.events << ", "
           << "\"flow_events\": " << p.flow.events << ", "
           << "\"flow_events_eliminated\": "
           << (p.cycle.events > p.flow.events
                   ? p.cycle.events - p.flow.events
                   : 0)
           << ", "
           << "\"cycle_wall_seconds\": " << p.cycle.wallSeconds << ", "
           << "\"hybrid_wall_seconds\": " << p.hybrid.wallSeconds
           << ", "
           << "\"flow_wall_seconds\": " << p.flow.wallSeconds << ", "
           << "\"hybrid_speedup\": "
           << (p.hybrid.wallSeconds > 0
                   ? p.cycle.wallSeconds / p.hybrid.wallSeconds
                   : 0.0)
           << ", "
           << "\"flow_speedup\": "
           << (p.flow.wallSeconds > 0
                   ? p.cycle.wallSeconds / p.flow.wallSeconds
                   : 0.0)
           << ", "
           << "\"hybrid_cycles_relerr\": "
           << relerr(p.hybrid.cycles, p.cycle.cycles) << ", "
           << "\"flow_cycles_relerr\": "
           << relerr(p.flow.cycles, p.cycle.cycles) << ", "
           << "\"hybrid_flow_packets\": " << p.hybrid.flowPackets
           << ", "
           << "\"flow_flow_packets\": " << p.flow.flowPackets << "}";
    }
    os << "\n  ],\n";
    os << "  \"cycle\": {\"events\": " << cyc_events
       << ", \"wall_seconds\": " << cyc_wall
       << ", \"events_per_second\": "
       << eventsPerSecond(cyc_events, cyc_wall) << "},\n";
    os << "  \"hybrid\": {\"events\": " << hyb_events
       << ", \"wall_seconds\": " << hyb_wall
       << ", \"events_per_second\": "
       << eventsPerSecond(hyb_events, hyb_wall)
       << ", \"speedup_vs_cycle\": "
       << (hyb_wall > 0 ? cyc_wall / hyb_wall : 0.0) << "},\n";
    os << "  \"flow\": {\"events\": " << flo_events
       << ", \"wall_seconds\": " << flo_wall
       << ", \"events_per_second\": "
       << eventsPerSecond(flo_events, flo_wall)
       << ", \"events_eliminated\": "
       << (cyc_events > flo_events ? cyc_events - flo_events : 0)
       << ", \"events_eliminated_frac\": "
       << (cyc_events > 0
               ? static_cast<double>(cyc_events > flo_events
                                         ? cyc_events - flo_events
                                         : 0) /
                     static_cast<double>(cyc_events)
               : 0.0)
       << ", \"speedup_vs_cycle\": "
       << (flo_wall > 0 ? cyc_wall / flo_wall : 0.0) << "}\n";
    os << "}\n";

    std::cout << "perf_hotpath --flow: "
              << (conserved ? "conservation exact"
                            : "CONSERVATION BROKEN")
              << ", flow " << (flo_wall > 0 ? cyc_wall / flo_wall : 0.0)
              << "x wall / "
              << (flo_events > 0
                      ? static_cast<double>(cyc_events) /
                            static_cast<double>(flo_events)
                      : 0.0)
              << "x fewer events vs cycle across " << points.size()
              << " points (JSON: " << out_path << ")\n";
    return conserved ? 0 : 1;
}

/**
 * Observability-overhead bench: every grid point twice — tracing
 * disabled vs packet-level tracing + sampling kept in memory — with a
 * hard identity check on the measurements. Writes BENCH_obs.json.
 */
int
runObsBench(const std::string &out_path, bool quick, double scale,
            const std::string &ref_path)
{
    using namespace netcrafter;

    std::vector<std::pair<std::string, SystemConfig>> configs = {
        {"base", config::baselineConfig()},
        {"full", bench::fullNetcrafter()},
    };
    if (!quick) {
        configs.insert(configs.begin() + 1,
                       {"stitch", bench::stitchSelective32()});
        configs.insert(configs.begin() + 2,
                       {"trim", bench::stitchTrim()});
        configs.push_back({"sector", config::sectorCacheConfig(16)});
    }

    obs::TraceOptions disabled; // level Off: the compiled-in no-op path
    obs::TraceOptions enabled;
    enabled.level = obs::TraceLevel::Packets;
    enabled.sampleInterval = 10'000;

    struct Totals
    {
        std::uint64_t events = 0;
        double wall = 0;
    };
    Totals off_t, on_t;
    std::uint64_t trace_records = 0, trace_dropped = 0, sample_rows = 0;
    bool identical = true;

    // All disabled legs run contiguously before any enabled leg: the
    // enabled runs touch a ~128 MB record buffer each, and interleaving
    // that churn with the disabled measurements used to depress them by
    // far more than the 2% budget the --ref comparison checks.
    std::vector<RunResult> off_results;
    for (const auto &[cfg_name, cfg] : configs)
        for (const auto &app : bench::apps())
            off_results.push_back(
                harness::runWorkload(app, cfg, scale, 1, disabled));

    std::size_t point = 0;
    for (const auto &[cfg_name, cfg] : configs) {
        for (const auto &app : bench::apps()) {
            const RunResult &off = off_results[point++];
            const RunResult on =
                harness::runWorkload(app, cfg, scale, 1, enabled);
            off_t.events += off.events;
            off_t.wall += off.wallSeconds;
            on_t.events += on.events;
            on_t.wall += on.wallSeconds;
            trace_records += on.traceRecords;
            trace_dropped += on.traceDropped;
            sample_rows += on.sampleRows;
            if (!harness::sameMeasurement(off, on)) {
                std::cerr << "perf_hotpath --obs: tracing CHANGED the "
                             "measurement at "
                          << cfg_name << "/" << app << "\n";
                identical = false;
            }
            std::cerr << cfg_name << "/" << app << ": "
                      << eventsPerSecond(off.events, off.wallSeconds)
                      << " ev/s off, "
                      << eventsPerSecond(on.events, on.wallSeconds)
                      << " ev/s on (" << on.traceRecords
                      << " records)\n";
        }
    }

    // Third leg: tracing off but the live-telemetry sampler running
    // (heartbeat stream + armed phase profiling). The sampler only
    // reads relaxed atomics the simulation publishes anyway, so the
    // measurements must stay bit-identical to the disabled leg.
    Totals tel_t;
    bool telemetry_identical = true;
    const std::string heartbeat_path = out_path + ".heartbeat.ndjson";
    {
        obs::TelemetryOptions topts;
        topts.heartbeatPath = heartbeat_path;
        topts.intervalMs = 50;
        obs::Telemetry::instance().start(topts);
    }
    point = 0;
    for (const auto &[cfg_name, cfg] : configs) {
        for (const auto &app : bench::apps()) {
            const RunResult &off = off_results[point++];
            const RunResult tel =
                harness::runWorkload(app, cfg, scale, 1, disabled);
            tel_t.events += tel.events;
            tel_t.wall += tel.wallSeconds;
            if (!harness::sameMeasurement(off, tel)) {
                std::cerr << "perf_hotpath --obs: telemetry CHANGED "
                             "the measurement at "
                          << cfg_name << "/" << app << "\n";
                telemetry_identical = false;
            }
        }
    }
    obs::Telemetry::instance().stop(); // final heartbeat lands first
    const std::uint64_t heartbeat_records =
        obs::Telemetry::instance().heartbeats();

    // Optional reference: the disabled path against a plain
    // BENCH_hotpath.json from the same machine. Informational — wall
    // clock noise on shared CI runners is larger than the 2% budget,
    // so the hard gate stays measurements_identical.
    double ref_evps = 0;
    bool have_ref = false, within_2pct = false;
    if (!ref_path.empty()) {
        std::ifstream is(ref_path);
        std::ostringstream text;
        text << is.rdbuf();
        obs::JsonValue root;
        std::string err;
        if (is && obs::parseJson(text.str(), root, &err)) {
            if (const obs::JsonValue *v =
                    root.find("events_per_second");
                v != nullptr && v->isNumber()) {
                ref_evps = v->number;
                have_ref = ref_evps > 0;
            }
        }
        if (!have_ref) {
            std::cerr << "perf_hotpath --obs: cannot read "
                         "events_per_second from '"
                      << ref_path << "' (ignored)\n";
        } else {
            within_2pct = eventsPerSecond(off_t.events, off_t.wall) >=
                          0.98 * ref_evps;
        }
    }

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot open " << out_path << " for writing\n";
        return 1;
    }
    os.precision(17);
    os << "{\n";
    os << "  \"bench\": \"perf_obs\",\n";
    os << "  \"workload_set\": \"fig14\",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"scale\": " << scale << ",\n";
    os << "  \"env_scale\": " << harness::envScale() << ",\n";
    os << "  \"trace_level\": \""
       << obs::TraceOptions::levelName(enabled.level) << "\",\n";
    os << "  \"sample_interval\": " << enabled.sampleInterval << ",\n";
    os << "  \"measurements_identical\": "
       << (identical ? "true" : "false") << ",\n";
    os << "  \"telemetry_identical\": "
       << (telemetry_identical ? "true" : "false") << ",\n";
    os << "  \"disabled\": {\"events\": " << off_t.events
       << ", \"wall_seconds\": " << off_t.wall
       << ", \"events_per_second\": "
       << eventsPerSecond(off_t.events, off_t.wall) << "},\n";
    os << "  \"enabled\": {\"events\": " << on_t.events
       << ", \"wall_seconds\": " << on_t.wall
       << ", \"events_per_second\": "
       << eventsPerSecond(on_t.events, on_t.wall)
       << ", \"trace_records\": " << trace_records
       << ", \"trace_dropped\": " << trace_dropped
       << ", \"sample_rows\": " << sample_rows << "},\n";
    os << "  \"telemetry\": {\"events\": " << tel_t.events
       << ", \"wall_seconds\": " << tel_t.wall
       << ", \"events_per_second\": "
       << eventsPerSecond(tel_t.events, tel_t.wall)
       << ", \"heartbeat_records\": " << heartbeat_records
       << ", \"heartbeat_path\": \""
       << exp::jsonEscape(heartbeat_path) << "\"},\n";
    os << "  \"enabled_over_disabled_wall\": "
       << (off_t.wall > 0 ? on_t.wall / off_t.wall : 0.0) << ",\n";
    os << "  \"telemetry_over_disabled_wall\": "
       << (off_t.wall > 0 ? tel_t.wall / off_t.wall : 0.0) << ",\n";
    os << "  \"ref\": "
       << (ref_path.empty() ? std::string("null")
                            : "\"" + exp::jsonEscape(ref_path) + "\"")
       << ",\n";
    os << "  \"ref_events_per_second\": " << ref_evps << ",\n";
    os << "  \"disabled_within_2pct_of_ref\": "
       << (have_ref && within_2pct ? "true" : "false") << "\n";
    os << "}\n";

    std::cout << "perf_hotpath --obs: "
              << (identical && telemetry_identical
                      ? "measurements identical"
                      : "MEASUREMENTS DIVERGED")
              << ", " << eventsPerSecond(off_t.events, off_t.wall)
              << " ev/s disabled vs "
              << eventsPerSecond(on_t.events, on_t.wall)
              << " ev/s traced vs "
              << eventsPerSecond(tel_t.events, tel_t.wall)
              << " ev/s telemetry, " << trace_records << " records, "
              << heartbeat_records << " heartbeats (JSON: " << out_path
              << ")\n";
    return identical && telemetry_identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace netcrafter;

    std::string out_path;
    std::string ref_path;
    bool quick = false;
    bool shard_bench = false;
    bool obs_bench = false;
    bool flow_bench = false;
    double scale = 1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--ref" && i + 1 < argc) {
            ref_path = argv[++i];
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--shards") {
            shard_bench = true;
        } else if (arg == "--obs") {
            obs_bench = true;
        } else if (arg == "--flow") {
            flow_bench = true;
        } else if (arg == "--scale" && i + 1 < argc) {
            const std::string value = argv[++i];
            char *end = nullptr;
            scale = std::strtod(value.c_str(), &end);
            if (end != value.c_str() + value.size() || scale <= 0.0 ||
                !std::isfinite(scale)) {
                std::cerr << "perf_hotpath: --scale must be a positive "
                             "finite number, got '" << value << "'\n";
                return 1;
            }
        } else {
            std::cerr << "usage: perf_hotpath [--out FILE] [--quick]"
                         " [--scale S] [--shards] [--obs [--ref FILE]]"
                         " [--flow]\n";
            return 2;
        }
    }
    if (shard_bench + obs_bench + flow_bench > 1) {
        std::cerr << "perf_hotpath: --shards, --obs and --flow are "
                     "exclusive\n";
        return 2;
    }
    if (out_path.empty()) {
        out_path = shard_bench ? "BENCH_parallel.json"
                   : obs_bench ? "BENCH_obs.json"
                   : flow_bench ? "BENCH_flow.json"
                                : "BENCH_hotpath.json";
    }
    if (shard_bench)
        return runShardBench(out_path, quick, scale);
    if (obs_bench)
        return runObsBench(out_path, quick, scale, ref_path);
    if (flow_bench)
        return runFlowBench(out_path, quick, scale);

    std::vector<std::pair<std::string, SystemConfig>> configs = {
        {"base", config::baselineConfig()},
        {"full", bench::fullNetcrafter()},
    };
    if (!quick) {
        configs.insert(configs.begin() + 1,
                       {"stitch", bench::stitchSelective32()});
        configs.insert(configs.begin() + 2,
                       {"trim", bench::stitchTrim()});
        configs.push_back({"sector", config::sectorCacheConfig(16)});
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Point> points;
    std::uint64_t total_events = 0;
    double total_wall = 0;
    for (const auto &[cfg_name, cfg] : configs) {
        for (const auto &app : bench::apps()) {
            Point p;
            p.config = cfg_name;
            p.workload = app;
            p.result = harness::runWorkload(app, cfg, scale);
            total_events += p.result.events;
            total_wall += p.result.wallSeconds;
            std::cerr << cfg_name << "/" << app << ": "
                      << p.result.events << " events in "
                      << p.result.wallSeconds << "s ("
                      << eventsPerSecond(p.result.events,
                                         p.result.wallSeconds)
                      << " ev/s)\n";
            points.push_back(std::move(p));
        }
    }
    const double harness_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot open " << out_path << " for writing\n";
        return 1;
    }
    os.precision(17);
    os << "{\n";
    os << "  \"bench\": \"perf_hotpath\",\n";
    os << "  \"workload_set\": \"fig14\",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"scale\": " << scale << ",\n";
    os << "  \"env_scale\": " << harness::envScale() << ",\n";
    os << "  \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        os << (i ? ",\n    {" : "\n    {");
        os << "\"config\": \"" << exp::jsonEscape(p.config) << "\", "
           << "\"workload\": \"" << exp::jsonEscape(p.workload)
           << "\", "
           << "\"cycles\": " << p.result.cycles << ", "
           << "\"events\": " << p.result.events << ", "
           << "\"wall_seconds\": " << p.result.wallSeconds << ", "
           << "\"events_per_second\": "
           << eventsPerSecond(p.result.events, p.result.wallSeconds)
           << "}";
    }
    os << "\n  ],\n";
    os << "  \"total_events\": " << total_events << ",\n";
    os << "  \"total_wall_seconds\": " << total_wall << ",\n";
    os << "  \"harness_wall_seconds\": " << harness_wall << ",\n";
    os << "  \"events_per_second\": "
       << eventsPerSecond(total_events, total_wall) << "\n";
    os << "}\n";

    std::cout << "perf_hotpath: " << total_events << " events in "
              << total_wall << "s -> "
              << eventsPerSecond(total_events, total_wall)
              << " events/sec (" << points.size() << " points, JSON: "
              << out_path << ")\n";
    return 0;
}
