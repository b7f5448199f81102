/**
 * @file
 * Experiment harness: runs one (workload, configuration) pair and
 * extracts every statistic the paper's figures need into a flat result
 * record, so each figure just sweeps configs and prints rows.
 */

#ifndef NETCRAFTER_HARNESS_RUNNER_HH
#define NETCRAFTER_HARNESS_RUNNER_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/config/system_config.hh"
#include "src/flow/fidelity.hh"
#include "src/obs/trace.hh"
#include "src/serve/serve_config.hh"
#include "src/sim/sharded_engine.hh"
#include "src/sim/types.hh"

namespace netcrafter::harness {

/**
 * Per-class latency summary of an open-loop serving run (all zero for
 * closed-loop runs). Percentiles are in cycles, from the mergeable
 * quantile sketch — identical for every shard count.
 */
struct ServeClassResult
{
    std::uint64_t measured = 0;
    double meanLatency = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;

    friend bool operator==(const ServeClassResult &,
                           const ServeClassResult &) = default;
};

/** Everything measured in one simulation run. */
struct RunResult
{
    std::string workload;

    /** End-to-end execution time, cycles. */
    Tick cycles = 0;

    /** Discrete events executed (simulator cost, not modelled time). */
    std::uint64_t events = 0;

    /**
     * The event ledger: (kind name, events) per handler or scheduling
     * class, sorted by name (see sim/event_kind.hh). Sums to events.
     */
    std::vector<std::pair<std::string, std::uint64_t>> eventLedger;

    std::uint64_t instructions = 0;
    std::uint64_t l1ReadAccesses = 0;
    std::uint64_t l1ReadMisses = 0;
    double l1Mpki = 0;

    // Inter-cluster link census -----------------------------------------
    std::uint64_t interFlits = 0;
    std::uint64_t interWireBytes = 0;
    std::uint64_t interUsefulBytes = 0;
    double interUtilization = 0;
    double ptwByteFraction = 0;

    /** Fraction of flits ~25% or ~75% padded (Figure 6). */
    double paddedFlitFraction = 0;
    double quarterPaddedFraction = 0;
    double threeQuarterPaddedFraction = 0;

    /** Fraction of logical flits that travelled stitched (Figure 12). */
    double stitchedFraction = 0;
    std::uint64_t stitchedPieces = 0;

    std::uint64_t trimmedPackets = 0;
    std::uint64_t bytesTrimmed = 0;
    std::uint64_t poolingArms = 0;

    // Remote access behaviour -------------------------------------------
    double avgInterReadLatency = 0;
    std::uint64_t interReads = 0;
    std::uint64_t remoteReads = 0;
    std::uint64_t localReads = 0;
    std::uint64_t pageWalks = 0;
    double meanWalkLength = 0;

    /** Bytes-needed census of inter-cluster reads:
     *  <=16 / <=32 / <=48 / <64 / 64 fractions (Figure 7). */
    std::array<double, 5> bytesNeededFrac{};

    // Open-loop serving (all zero for closed-loop runs) -----------------
    /** Offered load in requests per kilocycle (0 = closed-loop run). */
    double offeredLoad = 0;

    /** Requests injected / arrived-in-window / retired. */
    std::uint64_t serveInjected = 0;
    std::uint64_t serveMeasured = 0;
    std::uint64_t serveCompleted = 0;

    /** Peak simultaneously in-flight requests on any single GPU. */
    std::uint64_t servePeakInflight = 0;

    /** Measured completions per kilocycle (saturation-curve y-axis). */
    double serveThroughput = 0;

    /** Latency summaries: read, write, ptw, then the aggregate. */
    std::array<ServeClassResult, 4> serveClasses{};

    /** Host seconds the simulation took (diagnostics only). */
    double wallSeconds = 0;

    // Sharded execution census (diagnostics only: they describe how the
    // simulator ran, not what it simulated — the shard count never
    // changes a measurement) ------------------------------------------
    /** Engine shards the run executed on (1 = serial). */
    unsigned shards = 1;

    /** Barrier-synchronized windows the sharded engine executed. */
    std::uint64_t quantaExecuted = 0;

    /** Summed idle ticks shards spent waiting at window tails. */
    std::uint64_t barrierStallTicks = 0;

    /** Flits re-materialized across shard boundaries. */
    std::uint64_t crossShardFlits = 0;

    /** Peak per-channel ingress-queue depth at a quantum barrier. */
    std::uint64_t maxIngressDepth = 0;

    /** Rounds that ran without a barrier rendezvous because only one
     *  shard had runnable events. */
    std::uint64_t barrierRoundsSkipped = 0;

    /** Rounds a shard slept through entirely (summed over shards and
     *  rounds) instead of spinning at the window tail. */
    std::uint64_t idleParks = 0;

    /** Executor threads that drove the shards (1 = serial). */
    unsigned workThreads = 1;

    /** Window-tail stall ticks whose executor immediately ran another
     *  unit in the same round — stall converted into useful host time
     *  by thread multiplexing. */
    std::uint64_t coveredStallTicks = 0;

    /** barrierStallTicks minus coveredStallTicks: stall that still
     *  cost idle host time at the barrier. */
    std::uint64_t residualStallTicks = 0;

    /** Bounded adaptive-window widths the coordinator picked, in
     *  ticks: sample count, mean, and max (0/0/0 when serial or when
     *  every window was an unbounded drain-ahead stride). */
    std::uint64_t adaptiveWindowSamples = 0;
    double adaptiveWindowMean = 0;
    double adaptiveWindowMax = 0;

    // Simulator hot-path census ----------------------------------------
    /** Events executed per host wall-clock second (diagnostics only). */
    double eventsPerSecond = 0;

    /** Events scheduled within near-future wheels, summed over shards
     *  (diagnostics only: the near/far split depends on each shard's
     *  clock at scheduling time, which sharding changes). */
    std::uint64_t nearEvents = 0;

    /** Events that overflowed into the far-future heaps (diagnostics
     *  only, see nearEvents). */
    std::uint64_t farEvents = 0;

    /** Peak simultaneously pending one-shot callback events, summed
     *  over shards (diagnostics only: per-shard peaks don't sum to the
     *  serial peak). */
    std::uint64_t callbackPoolHighWater = 0;

    /** Bytes held by the engines' one-shot event node arenas
     *  (diagnostics only, see callbackPoolHighWater). */
    std::uint64_t callbackArenaBytes = 0;

    /** Peak live packets in this thread's arena (diagnostics only:
     *  thread-local pools accumulate across runs on a worker thread). */
    std::uint64_t packetPoolHighWater = 0;

    /** Peak live flits in this thread's arena (diagnostics only). */
    std::uint64_t flitPoolHighWater = 0;

    /** Bytes held by this thread's packet + flit arenas (diagnostics). */
    std::uint64_t poolArenaBytes = 0;

    /** SmallFn captures that spilled to the heap on this thread; the
     *  hot path stays at 0 (diagnostics only). */
    std::uint64_t smallFnHeapAllocs = 0;

    // Observability census (diagnostics only: tracing never changes a
    // measurement, and the record count depends on the trace level) ----
    /** Trace records captured across all shards (0 with tracing off). */
    std::uint64_t traceRecords = 0;

    /** Trace records dropped because a shard buffer hit its cap. */
    std::uint64_t traceDropped = 0;

    /** Time-series rows the interval sampler produced. */
    std::uint64_t sampleRows = 0;

    // Flow-lane fidelity census (all zero at cycle fidelity). Unlike
    // the shard count, fidelity CAN change measurements — flow/hybrid
    // results approximate cycle results — which is why it sits below
    // the sameMeasurement() cut as run metadata, and why experiment
    // caches key on it (see exp::ResultCache). ------------------------
    /** Fidelity the run executed at. */
    flow::Fidelity fidelity = flow::Fidelity::Cycle;

    /** Packets whose round trip was fused onto the flow lane. */
    std::uint64_t flowPackets = 0;

    /** Packets classified back to the flit path (Hybrid warmup,
     *  contention windows). */
    std::uint64_t flowCyclePackets = 0;

    /** Flow-lane packets delivered (== flowPackets after a drain). */
    std::uint64_t flowPacketsDelivered = 0;

    /** Post-trim bytes entering / leaving the flow lane; exact
     *  conservation means the two are equal after a drained run. */
    std::uint64_t flowBytesInjected = 0;
    std::uint64_t flowBytesDelivered = 0;

    /** Rate-estimation epochs closed across lanes. */
    std::uint64_t flowEpochsClosed = 0;

    /** Hybrid lane transitions: cycle->flow and flow->cycle. */
    std::uint64_t flowLaneActivations = 0;
    std::uint64_t flowLaneEscalations = 0;

    /** Max-min fair-share recomputations the flow model ran. */
    std::uint64_t flowRecomputes = 0;

    /** Flow-lane wait decomposition: analytic M/D/1 latency added on
     *  top of the virtual-FIFO backlog, and the backlog itself. */
    std::uint64_t flowMd1WaitTicks = 0;
    std::uint64_t flowFifoWaitTicks = 0;

    /** Inter-cluster flits delivered at wire heads (conservation
     *  check: equals interFlits after a drained cycle-fidelity run —
     *  flow-lane synthetic flits are credited, not delivered). */
    std::uint64_t wireFlitsDelivered = 0;

    /** Wire bytes delivered at wire heads (see wireFlitsDelivered). */
    std::uint64_t wireBytesDelivered = 0;

    // Host-time self-profiling census (diagnostics only: host seconds
    // per execution phase, summed over executor threads; all zero
    // unless profiling was armed — telemetry running, tracing on, or
    // NETCRAFTER_PROFILE) ----------------------------------------------
    /** Host seconds dispatching events inside windows. */
    double phaseExecuteSeconds = 0;

    /** Host seconds parked at (or coordinating) the round barrier. */
    double phaseBarrierWaitSeconds = 0;

    /** Host seconds draining sealed cross-shard mailboxes. */
    double phaseIngressSeconds = 0;

    /** Host seconds exporting trace artifacts after the run. */
    double phaseExportSeconds = 0;

    /** NC_WARN_ONCE repeats suppressed during the run (diagnostics
     *  only; non-zero means stderr hid repeated warnings). */
    std::uint64_t warningsSuppressed = 0;
};

/**
 * How to run one simulation, as opposed to what it simulates (the
 * workload and SystemConfig). Every field defaults to a plain serial,
 * untraced, cycle-accurate run at full size; nothing here reads the
 * environment except fromEnv().
 */
struct RunOptions
{
    /** Multiplier on per-wavefront instruction counts. */
    double scale = 1.0;

    /**
     * Engine shards (clamped to the cluster count). Every measured
     * field of the result is identical for every shard count — only
     * the diagnostics differ.
     */
    unsigned shards = 1;

    /**
     * Tracing; off by default. When @c trace.outDir is set the run
     * writes `<outDir>/<workload>-<digest>-s<scale>-n<shards>.{
     * trace.json,host.trace.json,timeseries.csv,stats.json}` — sim-time
     * and host-time Chrome traces, the interval time-series, and the
     * lifecycle statistics.
     */
    obs::TraceOptions trace{};

    /** Executor threads driving the shards; never changes a result. */
    sim::ExecPolicy exec{};

    /**
     * Execution fidelity. Run metadata, not a config field: flow and
     * hybrid runs approximate the cycle measurement, so results from
     * different fidelities must never be conflated — exp::ResultCache
     * keys on it.
     */
    flow::Fidelity fidelity = flow::Fidelity::Cycle;

    /**
     * The one reader of NETCRAFTER_SCALE, NETCRAFTER_SHARDS,
     * NETCRAFTER_THREADS, NETCRAFTER_FIDELITY, NETCRAFTER_TRACE_OUT,
     * NETCRAFTER_TRACE_LEVEL and NETCRAFTER_SAMPLE_INTERVAL. Unset
     * variables keep the defaults; invalid values are fatal. Setting
     * an output directory or sample interval without a level implies
     * the packet tier. Tools call this once and let their flags
     * override the result.
     */
    static RunOptions fromEnv();
};

/**
 * Simulate @p workload_name (a Table 3 abbreviation or "GEMM") under
 * @p cfg, run as @p opts says.
 */
RunResult runWorkload(const std::string &workload_name,
                      const config::SystemConfig &cfg,
                      const RunOptions &opts = {});

/**
 * Positional form of the above, kept for the benchmark under
 * perfbench/. @p sync is accepted and ignored (see sim::SyncPolicy).
 */
RunResult runWorkload(const std::string &workload_name,
                      const config::SystemConfig &cfg, double scale,
                      unsigned shards, const obs::TraceOptions &trace,
                      const sim::ExecPolicy &exec,
                      flow::Fidelity fidelity,
                      const sim::SyncPolicy &sync);

/**
 * Run one open-loop serving scenario (@p serve must be enabled) on a
 * system built from @p cfg and fill the serve_* fields alongside every
 * ordinary measurement. The result's workload name is
 * "serve-<arrival>". Like runWorkload, all measured fields are
 * identical for every shard count.
 */
RunResult runServe(const serve::ServeConfig &serve,
                   const config::SystemConfig &cfg,
                   const RunOptions &opts = {});

/** Geometric mean of a sequence of positive ratios. */
double geomean(const std::vector<double> &xs);

/** Parse and validate one scale value; NC_FATAL names @p what on bad
 *  input (anything not a positive finite number). */
double parseScaleEnv(const char *text,
                     const char *what = "NETCRAFTER_SCALE");

/** Parse and validate one tolerance in percent; NC_FATAL names @p what
 *  on bad input (anything not a non-negative finite number). */
double parseTolerancePct(const char *text, const char *what);

/**
 * Parse and validate one NETCRAFTER_SHARDS value: a positive integer
 * shard count (sanely capped at 65536). Zero, negative numbers, and
 * garbage are fatal — silently running serial on a typo would make
 * every "parallel" benchmark lie.
 */
unsigned parseShardsEnv(const char *text);

/**
 * True when @p a and @p b report identical measurements — every field
 * except the diagnostics (wall-clock rates, shard-execution census,
 * per-shard queue/pool gauges). Exact comparison: the simulator is
 * deterministic, so equal inputs must produce bit-equal outputs — in
 * particular a serial and a sharded run of the same (workload, config)
 * must compare equal.
 */
bool sameMeasurement(const RunResult &a, const RunResult &b);

} // namespace netcrafter::harness

#endif // NETCRAFTER_HARNESS_RUNNER_HH
