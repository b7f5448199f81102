/**
 * @file
 * The benchmark's workloads and the passes that run them. A workload is
 * a fixed set of closed-loop design points; one pass simulates every
 * point to completion and reads its statistics back. The benchmark
 * reaches the simulator only through its public entry points
 * (gpu::MultiGpuSystem, workloads::makeWorkload, exp::Scheduler with
 * exp::ResultCache) and times each call from outside.
 */

#ifndef NETCRAFTER_PERFBENCH_BENCH_HH
#define NETCRAFTER_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hh"
#include "src/config/system_config.hh"
#include "src/exp/sweep.hh"
#include "src/harness/runner.hh"
#include "src/sim/sharded_engine.hh"

namespace perfbench {

/** Named simulated counts or host gauges of one point. */
using Counts = std::map<std::string, double>;

/** One design point: @p app under @p cfg. */
struct Point
{
    std::string label;
    std::string app;
    netcrafter::config::SystemConfig cfg;

    std::string name() const { return label + "/" + app; }
};

struct WorkloadDef
{
    std::string name;

    /** True: points run as SweepSpecs through one Scheduler + cache. */
    bool sweep = false;

    /** Problem-size multiplier of every point. */
    double scale = 1.0;

    /** Engine shards and executor policy of grid points. */
    unsigned shards = 1;
    netcrafter::sim::ExecPolicy exec{};

    /** Host seconds one pass takes on the reference 4-CPU host; sets
     *  how many passes a run of --seconds makes. */
    double nominalPassSeconds = 1.0;

    /** Host threads the workload keeps busy (shard threads or workers). */
    unsigned hostThreads = 1;

    /** Grid: the simulated points. Sweep: every job, for the set-up pass. */
    std::vector<Point> points;

    /** Sweep only: the figure sweeps and the scheduler's worker count. */
    std::vector<netcrafter::exp::SweepSpec> specs;
    unsigned workers = 1;

    /** Sweep only: jobs that repeat an earlier design point. */
    std::uint64_t expectedCacheHits = 0;
};

/**
 * Build workload @p name with SystemConfig::seed = @p seed on every
 * point. Returns false when the name is unknown.
 */
bool makeWorkloadDef(const std::string &name, std::uint64_t seed,
                     WorkloadDef &out);

/** What one point execution produced. */
struct PointResult
{
    std::string name;

    /** False when a correctness check failed; @p failure says which. */
    bool ok = true;
    std::string failure;

    /** False for a sweep job answered from the result cache. */
    bool simulated = true;

    /** Simulated counts: deterministic for a seed. */
    Counts counts;

    /** Host-dependent gauges (arena bytes, heap allocs, phase seconds). */
    Counts diag;

    /** Host seconds: the whole point and the timed calls the metrics
     *  break out (grid points only). */
    double seconds = 0;
    double constructSeconds = 0;
    double runSeconds = 0;
    double collectSeconds = 0;

    /** Sweep only: the scheduler's result, for sameMeasurement. */
    netcrafter::harness::RunResult run;
};

struct PassResult
{
    bool traced = false;
    double wallSeconds = 0;
    std::vector<PointResult> points;

    /** Sweep only. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    double busyFrac = 0;
    double tailIdleSeconds = 0;

    /** Traced passes: self seconds per layer. */
    std::map<std::string, double> selfSeconds;
};

/**
 * Run every point of @p w once. With @p spans non-null the pass records
 * a span around each call and arms the engines' phase profiler.
 */
PassResult runPass(const WorkloadDef &w, Spans *spans);

/** Host seconds of the set-up pass, split by call. */
struct SetupResult
{
    double makeSeconds = 0;
    double constructSeconds = 0;

    /** collectStats() on the unrun systems (not part of set-up). */
    double collectSeconds = 0;
};

/**
 * Call makeWorkload and build a MultiGpuSystem for every point, without
 * simulating: the set-up cost of the workload. Also times collectStats()
 * on each fresh system, the only view of collection cost the sweep gets
 * (its jobs collect inside the scheduler).
 */
SetupResult setupPass(const WorkloadDef &w, Spans *spans);

/** Simulate one grid point and check its outputs. */
PointResult runGridPoint(const WorkloadDef &w, const Point &p,
                         Spans *spans, int parent, int point_id);

} // namespace perfbench

#endif // NETCRAFTER_PERFBENCH_BENCH_HH
