#include "src/obs/telemetry.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/sim/logging.hh"

namespace netcrafter::obs {

namespace {

unsigned
parseIntervalEnv(const char *text)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 1 || v > 3'600'000) {
        NC_FATAL("NETCRAFTER_HEARTBEAT_INTERVAL_MS must be a wall "
                 "interval in [1, 3600000] ms, got '", text, "'");
    }
    return static_cast<unsigned>(v);
}

double
parseWatchdogSecsEnv(const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v > 0)) {
        NC_FATAL("NETCRAFTER_WATCHDOG_SECS must be a positive host-"
                 "second threshold, got '", text, "'");
    }
    return v;
}

bool
parseBoolEnv(const char *name, const char *text)
{
    if (!std::strcmp(text, "1") || !std::strcmp(text, "on") ||
        !std::strcmp(text, "true"))
        return true;
    if (!std::strcmp(text, "0") || !std::strcmp(text, "off") ||
        !std::strcmp(text, "false"))
        return false;
    NC_FATAL(name, " must be one of 0/1/on/off/true/false, got '", text,
             "'");
}

/** -1 for the kTickNever sentinel, the tick itself otherwise. */
long long
tickOrNever(std::uint64_t tick)
{
    return tick == kTickNever ? -1 : static_cast<long long>(tick);
}

/** "1.23M" style human count for the TTY line. */
std::string
humanCount(double v)
{
    char buf[32];
    if (v >= 1e9)
        std::snprintf(buf, sizeof buf, "%.2fG", v / 1e9);
    else if (v >= 1e6)
        std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
    else if (v >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
}

} // namespace

const TelemetryOptions &
TelemetryOptions::fromEnv()
{
    static const TelemetryOptions opts = [] {
        TelemetryOptions o;
        if (const char *v = std::getenv("NETCRAFTER_HEARTBEAT_OUT"))
            o.heartbeatPath = v;
        if (const char *v = std::getenv("NETCRAFTER_HEARTBEAT_INTERVAL_MS"))
            o.intervalMs = parseIntervalEnv(v);
        if (const char *v = std::getenv("NETCRAFTER_HEARTBEAT_TTY"))
            o.tty = parseBoolEnv("NETCRAFTER_HEARTBEAT_TTY", v);
        if (const char *v = std::getenv("NETCRAFTER_WATCHDOG_SECS"))
            o.watchdogSecs = parseWatchdogSecsEnv(v);
        if (const char *v = std::getenv("NETCRAFTER_WATCHDOG_DUMP"))
            o.watchdogDumpPath = v;
        if (const char *v = std::getenv("NETCRAFTER_WATCHDOG_ABORT"))
            o.watchdogAbort = parseBoolEnv("NETCRAFTER_WATCHDOG_ABORT", v);
        return o;
    }();
    return opts;
}

Telemetry &
Telemetry::instance()
{
    static Telemetry telemetry;
    return telemetry;
}

Telemetry::~Telemetry()
{
    stop();
}

void
Telemetry::start(const TelemetryOptions &opts)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (running_.load(std::memory_order_acquire))
        return;
    if (!opts.enabled())
        return;
    opts_ = opts;
    stopRequested_ = false;
    heartbeats_.store(0, std::memory_order_relaxed);
    lastEvents_ = 0;
    lastTtyTime_ = 0;
    epoch_ = std::chrono::steady_clock::now();

    if (opts_.watchdogSecs > 0) {
        Watchdog::Options wopts;
        wopts.noProgressSecs = opts_.watchdogSecs;
        wopts.dumpPath = opts_.watchdogDumpPath;
        wopts.abortOnTrigger = opts_.watchdogAbort;
        watchdog_ = std::make_unique<Watchdog>(
            wopts,
            [this] {
                return std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - epoch_)
                    .count();
            },
            [this] { return progressCounter(); },
            [this](std::ostream &os) { dumpAll(os); });
    }

    running_.store(true, std::memory_order_release);
    sampler_ = std::thread([this] { samplerMain(); });
}

void
Telemetry::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_.load(std::memory_order_acquire))
            return;
        stopRequested_ = true;
    }
    cv_.notify_all();
    sampler_.join();
    std::lock_guard<std::mutex> lk(mu_);
    running_.store(false, std::memory_order_release);
    watchdog_.reset();
}

void
Telemetry::ensureStartedFromEnv()
{
    if (running())
        return;
    const TelemetryOptions &opts = TelemetryOptions::fromEnv();
    if (opts.enabled())
        start(opts);
}

void
Telemetry::registerRun(const ProgressBoard *board,
                       std::function<void(std::ostream &)> dump)
{
    if (!running())
        return;
    std::lock_guard<std::mutex> lk(mu_);
    runs_.push_back(Run{board, std::move(dump)});
}

void
Telemetry::unregisterRun(const ProgressBoard *board)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = runs_.begin(); it != runs_.end(); ++it) {
        if (it->board == board) {
            runs_.erase(it);
            return;
        }
    }
}

void
Telemetry::registerSweep(const SweepProgress *sweep)
{
    if (!running())
        return;
    std::lock_guard<std::mutex> lk(mu_);
    sweeps_.push_back(sweep);
}

void
Telemetry::unregisterSweep(const SweepProgress *sweep)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = sweeps_.begin(); it != sweeps_.end(); ++it) {
        if (*it == sweep) {
            sweeps_.erase(it);
            return;
        }
    }
}

/** Monotone counter the watchdog watches: any event executed anywhere
 *  or any sweep job retired counts as forward progress. Caller holds
 *  mu_ (the watchdog only ever fires from the sampler thread). */
std::uint64_t
Telemetry::progressCounter()
{
    std::uint64_t sum = 0;
    for (const Run &run : runs_)
        sum += run.board->totalEvents();
    for (const SweepProgress *sweep : sweeps_)
        sum += sweep->jobsDone.load(std::memory_order_relaxed);
    return sum;
}

void
Telemetry::dumpAll(std::ostream &os)
{
    for (const Run &run : runs_)
        if (run.dump)
            run.dump(os);
}

void
Telemetry::samplerMain()
{
    std::ofstream file;
    std::ostream *out = nullptr;
    if (!opts_.heartbeatPath.empty()) {
        file.open(opts_.heartbeatPath, std::ios::trunc);
        if (!file) {
            NC_WARN("cannot open heartbeat file '", opts_.heartbeatPath,
                    "'; heartbeats disabled for this run");
        } else {
            out = &file;
        }
    }

    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        const bool stopping = cv_.wait_for(
            lk, std::chrono::milliseconds(opts_.intervalMs),
            [this] { return stopRequested_; });

        const double host_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - epoch_)
                .count();
        emitHeartbeat(out, host_seconds);
        if (opts_.tty)
            paintTty(host_seconds);
        if (watchdog_)
            watchdog_->poll();

        if (stopping) {
            if (opts_.tty)
                std::cerr << '\n';
            return;
        }
    }
}

/** One NDJSON record. Caller holds mu_; boards are read with relaxed
 *  atomic loads only. */
void
Telemetry::emitHeartbeat(std::ostream *file, double host_seconds)
{
    heartbeats_.fetch_add(1, std::memory_order_relaxed);
    if (file == nullptr)
        return;

    std::ostringstream os;
    os << "{\"seq\":" << heartbeats_.load(std::memory_order_relaxed)
       << ",\"host_seconds\":" << host_seconds;

    std::uint64_t events = 0, backlog = 0;
    os << ",\"runs\":[";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        const ProgressBoard &b = *runs_[i].board;
        events += b.totalEvents();
        backlog += b.totalBacklog();
        if (i > 0)
            os << ',';
        os << "{\"round\":" << b.round.load(std::memory_order_relaxed)
           << ",\"window_start\":"
           << tickOrNever(b.windowStart.load(std::memory_order_relaxed))
           << ",\"window_end\":"
           << tickOrNever(b.windowEnd.load(std::memory_order_relaxed))
           << ",\"quanta\":" << b.quanta.load(std::memory_order_relaxed)
           << ",\"stall_ticks\":"
           << b.stallTicks.load(std::memory_order_relaxed)
           << ",\"idle_parks\":"
           << b.idleParks.load(std::memory_order_relaxed)
           << ",\"serve_inflight\":" << b.totalServeInflight()
           << ",\"flow_lanes_active\":" << b.totalFlowLanesActive()
           << ",\"shards\":[";
        for (unsigned s = 0; s < b.shards(); ++s) {
            const ShardCell &cell = b.cell(s);
            if (s > 0)
                os << ',';
            os << "{\"tick\":"
               << cell.tick.load(std::memory_order_relaxed)
               << ",\"events\":"
               << cell.events.load(std::memory_order_relaxed)
               << ",\"backlog\":"
               << cell.backlog.load(std::memory_order_relaxed)
               << ",\"next_tick\":"
               << tickOrNever(
                      cell.nextTick.load(std::memory_order_relaxed))
               << '}';
        }
        os << "]}";
    }
    os << "],\"events\":" << events << ",\"backlog\":" << backlog;

    os << ",\"phases\":{";
    for (unsigned p = 0; p < kPhaseCount; ++p) {
        double secs = 0;
        for (const Run &run : runs_)
            secs += run.board->phaseSeconds(static_cast<Phase>(p));
        if (p > 0)
            os << ',';
        os << '"' << phaseName(static_cast<Phase>(p)) << "\":" << secs;
    }
    os << '}';

    if (!sweeps_.empty()) {
        std::uint64_t done = 0, total = 0, hits = 0;
        for (const SweepProgress *sweep : sweeps_) {
            done += sweep->jobsDone.load(std::memory_order_relaxed);
            total += sweep->jobsTotal.load(std::memory_order_relaxed);
            hits += sweep->cacheHits.load(std::memory_order_relaxed);
        }
        const double eta =
            done > 0 && total >= done
                ? host_seconds * static_cast<double>(total - done) /
                      static_cast<double>(done)
                : -1.0;
        os << ",\"sweep\":{\"jobs_done\":" << done
           << ",\"jobs_total\":" << total << ",\"cache_hits\":" << hits
           << ",\"eta_seconds\":" << eta << '}';
    }

    os << "}\n";
    *file << os.str() << std::flush;
}

/** Single-line live display, redrawn in place. Caller holds mu_. */
void
Telemetry::paintTty(double host_seconds)
{
    std::uint64_t events = 0, backlog = 0;
    for (const Run &run : runs_) {
        events += run.board->totalEvents();
        backlog += run.board->totalBacklog();
    }
    const double dt = host_seconds - lastTtyTime_;
    const double rate =
        dt > 0 && events >= lastEvents_
            ? static_cast<double>(events - lastEvents_) / dt
            : 0;
    lastEvents_ = events;
    lastTtyTime_ = host_seconds;

    std::ostringstream line;
    line << "\r[netcrafter] " << humanCount(static_cast<double>(events))
         << " ev";
    if (rate > 0)
        line << " @ " << humanCount(rate) << " ev/s";
    line << " | backlog " << humanCount(static_cast<double>(backlog));

    std::uint64_t done = 0, total = 0;
    for (const SweepProgress *sweep : sweeps_) {
        done += sweep->jobsDone.load(std::memory_order_relaxed);
        total += sweep->jobsTotal.load(std::memory_order_relaxed);
    }
    if (total > 0) {
        line << " | jobs " << done << '/' << total;
        if (done > 0 && total >= done) {
            const double eta = host_seconds *
                               static_cast<double>(total - done) /
                               static_cast<double>(done);
            line << " eta " << humanCount(eta) << 's';
        }
    }
    line << "   ";
    std::cerr << line.str() << std::flush;
}

bool
profilingArmed(bool tracing_enabled)
{
    static const bool env_profile = [] {
        const char *v = std::getenv("NETCRAFTER_PROFILE");
        return v != nullptr &&
               parseBoolEnv("NETCRAFTER_PROFILE", v);
    }();
    return tracing_enabled || env_profile ||
           Telemetry::instance().running();
}

} // namespace netcrafter::obs
