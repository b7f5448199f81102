/**
 * @file
 * Hot-path performance harness for the two execution modes the
 * simulator benchmark under perfbench/ does not measure. Both run the
 * Figure 14 workload set (every Table 3 app under the
 * cumulative-mechanism configurations) and write machine-readable JSON.
 *
 * Usage:
 *   perf_hotpath --shards|--flow [--out FILE] [--quick] [--scale S]
 *
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
 *   --flow       hybrid-fidelity mode: every grid point at cycle,
 *                hybrid and flow fidelity (single engine, default
 *                topology). Writes BENCH_flow.json with per-point
 *                events-eliminated and wall-clock speedup columns and
 *                the relative cycles error of each approximate mode;
 *                fails only on broken flow-lane conservation (accuracy
 *                is validate-fidelity's gate)
 *   --out FILE   write JSON to FILE (default BENCH_parallel.json with
 *                --shards, BENCH_flow.json with --flow)
 *   --quick      baseline + full NetCrafter configs only (CI smoke)
 *   --scale S    extra problem-size multiplier on top of
 *                NETCRAFTER_SCALE (default 1.0)
 *
 * The rest of the run options (threads, fidelity, tracing) come from
 * the environment (harness::RunOptions::fromEnv) where a mode does not
 * pin them.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "src/exp/export.hh"
#include "src/exp/figures.hh"
#include "src/harness/runner.hh"
#include "src/workloads/workload.hh"

namespace {

using netcrafter::harness::RunOptions;
using netcrafter::harness::RunResult;

double
eventsPerSecond(std::uint64_t events, double seconds)
{
    return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
}

/** The fig14 configurations; baseline and full NetCrafter only when
 *  @p quick. */
std::vector<netcrafter::exp::ConfigPoint>
gridConfigs(bool quick)
{
    std::vector<netcrafter::exp::ConfigPoint> configs;
    for (const auto &c : netcrafter::exp::fig14Configs()) {
        if (!quick || c.label == "base" || c.label == "full")
            configs.push_back(c);
    }
    return configs;
}

/**
 * Parallel-scaling bench: the fig14 grid on a 4-cluster topology (one
 * GPU per cluster, so 4 shards partition it fully), swept over shard
 * counts at one executor thread per shard, then at 4 shards
 * multiplexed on fewer threads. Fails if any point's census diverges
 * from serial.
 */
int
runShardBench(const std::string &out_path, bool quick, double scale,
              const RunOptions &env)
{
    using namespace netcrafter;

    std::vector<exp::ConfigPoint> configs = gridConfigs(quick);
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
    bool census_ok = true;

    for (ShardRow &row : rows) {
        RunOptions run = env;
        run.scale = scale * env.scale;
        run.shards = row.shards;
        run.trace = {};
        run.exec = sim::ExecPolicy{row.threads};
        for (const auto &[cfg_name, cfg] : configs) {
            for (const auto &app : workloads::workloadNames()) {
                const RunResult r = harness::runWorkload(app, cfg, run);
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
    os << "  \"env_scale\": " << env.scale << ",\n";
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
runFlowBench(const std::string &out_path, bool quick, double scale,
             const RunOptions &env)
{
    using namespace netcrafter;

    const std::vector<exp::ConfigPoint> configs = gridConfigs(quick);

    struct FlowPoint
    {
        std::string config;
        std::string workload;
        RunResult cycle, hybrid, flow;
    };
    RunOptions run = env;
    run.scale = scale * env.scale;
    run.shards = 1;
    run.trace = {};
    run.exec = sim::ExecPolicy{0};
    auto at = [&run](flow::Fidelity fidelity) {
        RunOptions o = run;
        o.fidelity = fidelity;
        return o;
    };
    std::vector<FlowPoint> points;
    bool conserved = true;

    auto conservationOk = [](const RunResult &r) {
        return r.flowPackets == r.flowPacketsDelivered &&
               r.flowBytesInjected == r.flowBytesDelivered;
    };

    for (const auto &[cfg_name, cfg] : configs) {
        for (const auto &app : workloads::workloadNames()) {
            FlowPoint p;
            p.config = cfg_name;
            p.workload = app;
            p.cycle = harness::runWorkload(app, cfg,
                                           at(flow::Fidelity::Cycle));
            p.hybrid = harness::runWorkload(app, cfg,
                                            at(flow::Fidelity::Hybrid));
            p.flow = harness::runWorkload(app, cfg,
                                          at(flow::Fidelity::Flow));
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
    os << "  \"env_scale\": " << env.scale << ",\n";
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

} // namespace

int
main(int argc, char **argv)
{
    using namespace netcrafter;

    std::string out_path;
    bool quick = false;
    bool shard_bench = false;
    bool flow_bench = false;
    double scale = 1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--shards") {
            shard_bench = true;
        } else if (arg == "--flow") {
            flow_bench = true;
        } else if (arg == "--scale" && i + 1 < argc) {
            scale = harness::parseScaleEnv(argv[++i], "--scale");
        } else {
            std::cerr << "usage: perf_hotpath --shards|--flow [--out FILE]"
                         " [--quick] [--scale S]\n";
            return 2;
        }
    }
    if (shard_bench == flow_bench) {
        std::cerr << "perf_hotpath: give exactly one of --shards and "
                     "--flow\n";
        return 2;
    }
    if (out_path.empty())
        out_path = shard_bench ? "BENCH_parallel.json" : "BENCH_flow.json";
    const RunOptions env = RunOptions::fromEnv();
    return shard_bench ? runShardBench(out_path, quick, scale, env)
                       : runFlowBench(out_path, quick, scale, env);
}
