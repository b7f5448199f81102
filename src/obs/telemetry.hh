/**
 * @file
 * Live run telemetry: a background host-time sampler that, at a
 * configurable wall interval, snapshots every registered run's
 * lock-free ProgressBoard and appends one NDJSON heartbeat record per
 * interval to a file, optionally paints a single-line TTY progress/ETA
 * display, and polls a hang-diagnosing Watchdog.
 *
 * Non-perturbation contract (mirrors the tracing layer's): the sampler
 * only ever *reads* relaxed atomics the simulation publishes anyway, so
 * a run with telemetry on is bit-identical (sameMeasurement, event
 * census) to one with it off. Registration costs one mutex acquisition
 * per run construction/destruction, never per event.
 *
 * Wire-up: `Telemetry::instance()` is process-global. The sweep CLI
 * starts it from flags; the harness starts it from the
 * NETCRAFTER_HEARTBEAT_* / NETCRAFTER_WATCHDOG_* environment
 * (ensureStartedFromEnv) so bench tools and tests get heartbeats
 * without plumbing. MultiGpuSystem registers its engine's board for the
 * lifetime of the system; exp::Scheduler registers a SweepProgress for
 * the lifetime of a sweep.
 */

#ifndef NETCRAFTER_OBS_TELEMETRY_HH
#define NETCRAFTER_OBS_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/progress_board.hh"
#include "src/obs/watchdog.hh"

namespace netcrafter::obs {

/**
 * Sweep-level progress a Scheduler publishes for the heartbeat/ETA
 * display. Atomics because the scheduler's worker threads bump them
 * while the sampler reads.
 */
struct SweepProgress
{
    std::atomic<std::uint64_t> jobsDone{0};
    std::atomic<std::uint64_t> jobsTotal{0};
    std::atomic<std::uint64_t> cacheHits{0};
};

/** Configuration for the telemetry subsystem (flags or environment). */
struct TelemetryOptions
{
    /** NDJSON heartbeat file; empty emits no file. */
    std::string heartbeatPath;

    /** Wall milliseconds between heartbeats. */
    unsigned intervalMs = 500;

    /** Paint a single-line progress/ETA display on stderr. */
    bool tty = false;

    /** Watchdog no-progress threshold in host seconds; 0 disables. */
    double watchdogSecs = 0;

    /** Extra file the watchdog flight record is written to. */
    std::string watchdogDumpPath;

    /** std::abort() after the watchdog dump. */
    bool watchdogAbort = false;

    bool
    enabled() const
    {
        return !heartbeatPath.empty() || tty || watchdogSecs > 0;
    }

    /**
     * Options from NETCRAFTER_HEARTBEAT_{OUT,INTERVAL_MS,TTY} and
     * NETCRAFTER_WATCHDOG_{SECS,DUMP,ABORT}, parsed once and cached
     * (NC_FATAL on junk).
     */
    static const TelemetryOptions &fromEnv();
};

/** The process-wide sampler; see the file comment. */
class Telemetry
{
  public:
    static Telemetry &instance();

    /**
     * Start the sampler thread. No-op when already running (the first
     * configuration wins — a sweep's flags beat the harness's env
     * fallback because the CLI starts it first).
     */
    void start(const TelemetryOptions &opts);

    /**
     * Stop and join the sampler, emitting one final heartbeat first so
     * even a sub-interval run produces at least one record.
     */
    void stop();

    bool running() const { return running_.load(std::memory_order_acquire); }

    /** start(fromEnv()) when the environment asks for telemetry. */
    void ensureStartedFromEnv();

    /**
     * Register a live run: @p board is sampled every interval, @p dump
     * (may be empty) contributes to the watchdog's flight record.
     * Returns immediately when the sampler is not running.
     */
    void registerRun(const ProgressBoard *board,
                     std::function<void(std::ostream &)> dump);
    void unregisterRun(const ProgressBoard *board);

    /** Register/unregister a sweep's progress counters. */
    void registerSweep(const SweepProgress *sweep);
    void unregisterSweep(const SweepProgress *sweep);

    /** Heartbeat records emitted since start() (tests, benches). */
    std::uint64_t heartbeats() const
    {
        return heartbeats_.load(std::memory_order_relaxed);
    }

    /** The active options (valid while running). */
    const TelemetryOptions &options() const { return opts_; }

    ~Telemetry();

  private:
    Telemetry() = default;

    struct Run
    {
        const ProgressBoard *board;
        std::function<void(std::ostream &)> dump;
    };

    void samplerMain();
    void emitHeartbeat(std::ostream *file, double host_seconds);
    void paintTty(double host_seconds);
    void dumpAll(std::ostream &os);
    std::uint64_t progressCounter();

    TelemetryOptions opts_;
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> heartbeats_{0};

    std::mutex mu_;              // registry + lifecycle
    std::condition_variable cv_; // wakes the sampler for stop()
    bool stopRequested_ = false;
    std::vector<Run> runs_;
    std::vector<const SweepProgress *> sweeps_;
    std::thread sampler_;
    std::unique_ptr<Watchdog> watchdog_;
    std::chrono::steady_clock::time_point epoch_;

    std::uint64_t lastEvents_ = 0; // TTY rate estimate
    double lastTtyTime_ = 0;
};

/**
 * Should a newly built system arm host-time self-profiling? True when
 * telemetry is running, when @p tracing_enabled (the Chrome host trace
 * gains phase counter tracks), or when NETCRAFTER_PROFILE is truthy.
 */
bool profilingArmed(bool tracing_enabled);

} // namespace netcrafter::obs

#endif // NETCRAFTER_OBS_TELEMETRY_HH
