/**
 * @file
 * perfbench: the simulator benchmark.
 *
 *   perfbench --workload <grid-serial|grid-sharded|eval-sweep>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * Sets SystemConfig::seed = n on every point, times the set-up pass
 * several times, then makes max(3, s / nominal pass time) whole passes
 * over the workload (about s seconds on the reference host) and reports
 * medians. Every pass is checked: each point must
 * drain, conserve inter-cluster flits and bytes, and reproduce the first
 * pass's simulated counts exactly. With --trace 1 every other pass
 * records spans (written to --trace-out at exit) and the per-layer
 * metrics are printed; with --trace 0 the end-to-end metrics are. The
 * last stdout line is one JSON object: {correct, attempted, failed,
 * metrics}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"
#include "bench/bench_common.hh"
#include "spans.hh"

extern char **environ;

namespace perfbench {
namespace {

using netcrafter::harness::RunResult;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            a.workload = v;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("bad --seed " + v);
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0))
                usage("bad --seconds " + v);
        } else if (arg == "--trace") {
            if (v != "0" && v != "1")
                usage("bad --trace " + v);
            a.trace = v == "1";
        } else if (arg == "--trace-out") {
            a.traceOut = v;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** The simulator reads NETCRAFTER_* knobs; none may leak into a run. */
void
clearSimulatorEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("NETCRAFTER_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double
median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

template <class F>
std::vector<double>
each(const std::vector<const PassResult *> &passes, F f)
{
    std::vector<double> out;
    for (const PassResult *p : passes)
        out.push_back(f(*p));
    return out;
}

/** Σ of @p field over a pass's simulated points. */
double
sumPoints(const PassResult &p, double PointResult::*field)
{
    double s = 0;
    for (const PointResult &r : p.points)
        s += r.simulated ? r.*field : 0.0;
    return s;
}

/** The last '/'-separated component of a point's config label. */
std::string
configOf(const std::string &point_name)
{
    const std::size_t slash = point_name.rfind('/');
    const std::string label = point_name.substr(0, slash);
    return label.substr(label.rfind('/') + 1);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class Failures
{
  public:
    void
    attempt(bool ok, const std::string &what)
    {
        ++attempted_;
        if (ok)
            return;
        if (++failed_ <= 10)
            std::cerr << "perfbench: FAILED " << what << "\n";
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * Check every pass against the first: each point must have passed its
 * own checks and reproduce the first pass's simulated counts exactly.
 */
void
checkPasses(const WorkloadDef &w, const std::vector<PassResult> &passes,
            Failures &fails)
{
    const PassResult &ref = passes.front();
    for (std::size_t k = 0; k < passes.size(); ++k) {
        const PassResult &p = passes[k];
        for (std::size_t i = 0; i < p.points.size(); ++i) {
            const PointResult &r = p.points[i];
            const PointResult &r0 = ref.points.at(i);
            std::string why = r.failure;
            if (r.ok && r.counts != r0.counts)
                why = "simulated counts differ from the first pass";
            else if (r.ok && w.sweep &&
                     !netcrafter::harness::sameMeasurement(r.run, r0.run))
                why = "sameMeasurement fails against the first pass";
            fails.attempt(why.empty(), "pass " + std::to_string(k) + " " +
                                           r.name + ": " + why);
        }
        if (w.sweep) {
            const std::uint64_t jobs = p.points.size();
            fails.attempt(
                p.cacheHits == w.expectedCacheHits &&
                    p.cacheMisses == jobs - w.expectedCacheHits,
                "pass " + std::to_string(k) + ": cache hits " +
                    std::to_string(p.cacheHits) + " (expected " +
                    std::to_string(w.expectedCacheHits) + ")");
        }
    }
}

/**
 * Sharded workloads: re-run one point (chosen by the seed) sharded and
 * serially through the harness, outside any timed region. The two must
 * be the same measurement, and match the timed pass's counts.
 */
void
checkShardedAgainstSerial(const WorkloadDef &w, std::uint64_t seed,
                          const PassResult &ref, Failures &fails)
{
    namespace nc = netcrafter;
    const std::size_t i = seed % w.points.size();
    const Point &p = w.points[i];
    const RunResult serial = nc::harness::runWorkload(
        p.app, p.cfg, w.scale, 1, nc::obs::TraceOptions{},
        nc::sim::ExecPolicy{}, nc::flow::Fidelity::Cycle,
        nc::sim::SyncPolicy{});
    const RunResult sharded = nc::harness::runWorkload(
        p.app, p.cfg, w.scale, w.shards, nc::obs::TraceOptions{}, w.exec,
        nc::flow::Fidelity::Cycle, nc::sim::SyncPolicy{});
    const Counts &c = ref.points.at(i).counts;
    const bool ok =
        nc::harness::sameMeasurement(serial, sharded) &&
        static_cast<double>(sharded.cycles) == c.at("cycles") &&
        static_cast<double>(sharded.events) == c.at("events") &&
        static_cast<double>(sharded.interFlits) == c.at("inter_flits");
    fails.attempt(ok, "serial re-run of " + p.name() +
                          " differs from the sharded run");
}

std::vector<Metric>
endToEnd(const WorkloadDef &w, const std::vector<const PassResult *> &u,
         const std::vector<SetupResult> &setups)
{
    std::vector<double> setup, jobs;
    for (const SetupResult &s : setups)
        setup.push_back(s.makeSeconds + s.constructSeconds);
    for (const PassResult *p : u) {
        for (const PointResult &r : p->points) {
            if (r.simulated)
                jobs.push_back(r.seconds);
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::cout << "job samples: " << jobs.size() << " (" << u.size()
              << " passes x " << jobs.size() / std::max<std::size_t>(
                                                    1, u.size())
              << " simulated points of " << w.name << ")\n";
    return {
        {"wall_s", median(each(u, [](const PassResult &p) {
             return p.wallSeconds;
         })),
         "s"},
        {"setup_s", median(setup), "s"},
        {"job_p50_s", quantile(jobs, 0.50), "s"},
        {"job_p95_s", quantile(jobs, 0.95), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
    };
}

std::vector<Metric>
perLayer(const WorkloadDef &w, const std::vector<const PassResult *> &u,
         const std::vector<const PassResult *> &t,
         const std::vector<SetupResult> &setups)
{
    const PassResult &ref = *u.front();
    Counts sum, diag_max, diag_sum;
    double util_sum = 0, simulated = 0;
    for (const PointResult &r : ref.points) {
        if (!r.simulated)
            continue;
        simulated += 1;
        for (const auto &[k, v] : r.counts)
            sum[k] += v;
        for (const auto &[k, v] : r.diag) {
            diag_max[k] = std::max(diag_max[k], v);
            diag_sum[k] += v;
        }
        util_sum += r.counts.at("inter_utilization");
    }

    // Host seconds in the simulator proper, per pass: runFor on the
    // grids, whole jobs on the sweep (they run inside the scheduler).
    const auto run_seconds = [&](const PassResult &p,
                                 const std::string &config) {
        double s = 0;
        for (const PointResult &r : p.points) {
            if (r.simulated && (config.empty() || configOf(r.name) == config))
                s += w.sweep ? r.seconds : r.runSeconds;
        }
        return s;
    };
    const auto ns_per_event = [&](const std::string &config) {
        double events = 0;
        for (const PointResult &r : ref.points) {
            if (r.simulated && (config.empty() || configOf(r.name) == config))
                events += r.counts.at("events");
        }
        return median(each(u, [&](const PassResult &p) {
            return ratio(run_seconds(p, config) * 1e9, events);
        }));
    };
    const auto traced = [&](const std::string &key) {
        return median(each(t, [&](const PassResult &p) {
            double s = 0;
            for (const PointResult &r : p.points) {
                auto it = r.diag.find(key);
                s += it == r.diag.end() ? 0.0 : it->second;
            }
            return s;
        }));
    };
    const auto self = [&](const std::string &layer) {
        return median(each(t, [&](const PassResult &p) {
            auto it = p.selfSeconds.find(layer);
            return it == p.selfSeconds.end() ? 0.0 : it->second;
        }));
    };
    const auto c = [&](const std::string &k) {
        auto it = sum.find(k);
        return it == sum.end() ? 0.0 : it->second;
    };
    const auto setup_median = [&](double SetupResult::*field) {
        std::vector<double> xs;
        for (const SetupResult &s : setups)
            xs.push_back(s.*field);
        return median(xs);
    };
    const auto pass_median = [&](double PointResult::*field) {
        return median(each(u, [&](const PassResult &p) {
            return sumPoints(p, field);
        }));
    };

    const double untraced_wall = median(
        each(u, [](const PassResult &p) { return p.wallSeconds; }));
    const double traced_wall = median(
        each(t, [](const PassResult &p) { return p.wallSeconds; }));

    return {
        {"gpu.construct_s",
         w.sweep ? setup_median(&SetupResult::constructSeconds)
                 : pass_median(&PointResult::constructSeconds),
         "s"},
        {"gpu.run_s", median(each(u, [&](const PassResult &p) {
             return run_seconds(p, "");
         })),
         "s"},
        {"gpu.sim_cycles", c("cycles"), "cycles"},
        {"gpu.instructions", c("instructions"), "count"},
        {"sim.events", c("events"), "count"},
        {"sim.ns_per_event", ns_per_event(""), "ns"},
        {"sim.ns_per_event.base", ns_per_event("base"), "ns"},
        {"sim.ns_per_event.full", ns_per_event("full"), "ns"},
        {"sim.far_event_frac",
         ratio(c("far_events"), c("near_events") + c("far_events")),
         "ratio"},
        {"sim.callback_arena_bytes", diag_max["callback_arena_bytes"],
         "bytes"},
        {"sim.pool_arena_bytes", diag_max["pool_arena_bytes"], "bytes"},
        {"sim.smallfn_heap_allocs", diag_sum["smallfn_heap_allocs"],
         "count"},
        {"sim.quanta", c("quanta"), "count"},
        {"sim.rounds_skipped", c("rounds_skipped"), "count"},
        {"sim.barrier_stall_ticks", c("barrier_stall_ticks"), "cycles"},
        {"sim.residual_stall_ticks", c("residual_stall_ticks"), "cycles"},
        {"sim.cross_shard_flits", c("cross_shard_flits"), "count"},
        {"sim.phase_execute_s", traced("phase_execute_s"), "s"},
        {"sim.phase_barrier_wait_s", traced("phase_barrier_wait_s"), "s"},
        {"sim.phase_ingress_s", traced("phase_ingress_s"), "s"},
        {"noc.inter_flits", c("inter_flits"), "count"},
        {"noc.inter_wire_bytes", c("inter_wire_bytes"), "bytes"},
        {"noc.useful_byte_frac",
         ratio(c("inter_useful_bytes"), c("inter_wire_bytes")), "ratio"},
        {"noc.inter_utilization", ratio(util_sum, simulated), "ratio"},
        {"noc.inter_read_latency_cycles",
         ratio(c("inter_read_latency_sum"), c("inter_reads")), "cycles"},
        {"mem.l1_read_accesses", c("l1_read_accesses"), "count"},
        {"mem.l1_miss_frac",
         ratio(c("l1_read_misses"), c("l1_read_accesses")), "ratio"},
        {"mem.l2_accesses", c("l2_accesses"), "count"},
        {"mem.l2_miss_frac", ratio(c("l2_misses"), c("l2_accesses")),
         "ratio"},
        {"mem.dram_accesses", c("dram_accesses"), "count"},
        {"vm.l1tlb_misses", c("l2tlb_hits") + c("l2tlb_misses"), "count"},
        {"vm.l2tlb_miss_frac",
         ratio(c("l2tlb_misses"), c("l2tlb_hits") + c("l2tlb_misses")),
         "ratio"},
        {"vm.page_walks", c("page_walks"), "count"},
        {"vm.pte_fetches", c("pte_fetches"), "count"},
        {"vm.mean_walk_length", ratio(c("pte_fetches"), c("page_walks")),
         "count"},
        {"core.stitched_pieces", c("stitched_pieces"), "count"},
        {"core.stitched_flit_frac",
         ratio(c("stitched_pieces"), c("inter_flits") + c("stitched_pieces")),
         "ratio"},
        {"core.trimmed_packets", c("trimmed_packets"), "count"},
        {"core.bytes_trimmed", c("bytes_trimmed"), "bytes"},
        {"core.pooling_arms", c("pooling_arms"), "count"},
        {"harness.collect_s",
         w.sweep ? setup_median(&SetupResult::collectSeconds)
                 : pass_median(&PointResult::collectSeconds),
         "s"},
        {"exp.cache_hits", static_cast<double>(ref.cacheHits), "count"},
        {"exp.cache_misses", static_cast<double>(ref.cacheMisses), "count"},
        {"exp.worker_busy_frac",
         median(each(u, [](const PassResult &p) { return p.busyFrac; })),
         "ratio"},
        {"exp.tail_idle_s", median(each(u, [](const PassResult &p) {
             return p.tailIdleSeconds;
         })),
         "s"},
        {"obs.trace_overhead_frac", ratio(traced_wall, untraced_wall) - 1,
         "ratio"},
        {"obs.self_s.bench", self("bench"), "s"},
        {"obs.self_s.workloads", self("workloads"), "s"},
        {"obs.self_s.gpu", self("gpu"), "s"},
        {"obs.self_s.harness", self("harness"), "s"},
        {"obs.self_s.exp", self("exp"), "s"},
    };
}

void
printJson(bool correct, const Failures &fails,
          const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " +
                      std::to_string(fails.attempted()) +
                      ", \"failed\": " + std::to_string(fails.failed()) +
                      ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    std::cout << out << "}}" << std::endl;
}

int
run(const Args &args)
{
    WorkloadDef w;
    if (!makeWorkloadDef(args.workload, args.seed, w))
        usage("unknown workload " + args.workload);

    std::cout.precision(12);
    const unsigned cpus = netcrafter::bench::hostCpus();
    std::cout << "workload " << w.name << " seed " << args.seed
              << " trace " << args.trace << "\n"
              << "host_cpus " << cpus << " build_type "
              << PERFBENCH_BUILD_TYPE << "\n";
    const std::string note =
        netcrafter::bench::undersubscribedNote("perfbench", w.hostThreads);
    if (!note.empty())
        std::cout << "warning: " << note << "\n";

    Spans spans(Clock::now());
    Spans *tracer = args.trace ? &spans : nullptr;

    // Set-up passes are short (tens of ms on the grids), so repeat them
    // for at least half a second, and at least 5 times, before taking
    // the median.
    std::vector<SetupResult> setups;
    const Clock::time_point setup_start = Clock::now();
    while (setups.size() < 5 ||
           Clock::now() - setup_start < std::chrono::milliseconds(500))
        setups.push_back(setupPass(w, tracer));

    // The pass count follows from --seconds and the workload's nominal
    // pass time, not from the clock, so every run at one --seconds does
    // the same work (peak RSS grows with the systems built: exited
    // worker threads keep their pool slabs). A host so slow that the
    // passes overrun 3x --seconds stops early, to bound the run time.
    // Traced runs alternate untraced and traced passes so both see the
    // same host conditions, and need two of each: every pass's counts
    // are compared with the first one's.
    const std::size_t min_passes = args.trace ? 4 : 3;
    const std::size_t n_passes = std::max(
        min_passes,
        static_cast<std::size_t>(args.seconds / w.nominalPassSeconds));
    std::vector<PassResult> passes;
    const Clock::time_point t0 = Clock::now();
    while (passes.size() < n_passes) {
        const bool traced = args.trace && passes.size() % 2 == 1;
        passes.push_back(runPass(w, traced ? tracer : nullptr));
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (passes.size() >= min_passes && elapsed > 3 * args.seconds)
            break;
    }

    Failures fails;
    checkPasses(w, passes, fails);
    if (w.shards > 1)
        checkShardedAgainstSerial(w, args.seed, passes.front(), fails);

    std::vector<const PassResult *> u, t;
    for (const PassResult &p : passes)
        (p.traced ? t : u).push_back(&p);

    const std::vector<Metric> e2e = endToEnd(w, u, setups);
    std::vector<Metric> layers = perLayer(w, u, t, setups);
    for (std::size_t k = 0; k < passes.size(); ++k)
        std::cout << "pass " << k << (passes[k].traced ? " traced" : "")
                  << " wall_s " << passes[k].wallSeconds << "\n";
    std::cout << "passes " << u.size() << " untraced, " << t.size()
              << " traced; failed_frac "
              << ratio(static_cast<double>(fails.failed()),
                       static_cast<double>(fails.attempted()))
              << " ratio (" << fails.failed() << "/" << fails.attempted()
              << ")\n";
    for (const Metric &m : e2e)
        std::cout << "metric " << m.name << " " << m.value << " " << m.unit
                  << "\n";
    for (const Metric &m : layers) {
        if (args.trace || m.name.rfind("obs.", 0) != 0)
            std::cout << "metric " << m.name << " " << m.value << " "
                      << m.unit << "\n";
    }

    bool correct = fails.failed() == 0;
    if (args.trace && !args.traceOut.empty()) {
        std::ofstream os(args.traceOut);
        spans.writeChromeTrace(
            os, {{"workload", w.name},
                 {"seed", std::to_string(args.seed)},
                 {"host_cpus", std::to_string(cpus)},
                 {"build_type", PERFBENCH_BUILD_TYPE},
                 {"warning", note}});
        if (!os) {
            std::cerr << "perfbench: cannot write " << args.traceOut << "\n";
            correct = false;
        }
    }
    printJson(correct, fails, args.trace ? layers : e2e);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::clearSimulatorEnv();
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
