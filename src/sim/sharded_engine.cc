#include "src/sim/sharded_engine.hh"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <string>

#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"

namespace netcrafter::sim {

namespace {

/** Bounded-window widths, bucketed relative to the default fixed
 *  quantum of 16 ticks (cfg.interLinkLatency). */
const std::vector<double> kWindowBuckets = {16, 64, 256, 4096};

/** a + b saturating at kTickNever (either operand may be the sentinel). */
Tick
satAdd(Tick a, Tick b)
{
    return b >= kTickNever - a ? kTickNever : a + b;
}

} // namespace

/**
 * Shared state of one parallel drain. The quantum barrier is a single
 * sense-reversing rendezvous: `pending` counts the woken threads still
 * inside the current round, and the last one to decrement becomes the
 * round coordinator — it runs decide() with exclusive access (every
 * other thread is parked on its doorbell) and publishes the next
 * window by ringing exactly the doorbells of the threads that home an
 * active shard in it. The doorbell word doubles as the sense: even
 * values 2r mean "execute round r", odd values mean "the drain is
 * over". Threads futex-wait (std::atomic::wait) on their own doorbell,
 * so a thread with nothing to do sleeps through any number of rounds
 * without touching the barrier. A thread decrements `pending` only
 * after its last home unit of the round is finished, so the
 * coordinator never rewrites the round's inputs while any thread might
 * still be reading them.
 *
 * The worker threads park on `cv` between run() calls and re-enter the
 * round loop when `generation` advances.
 */
struct ShardedEngine::Coordination
{
    Coordination(unsigned shards, unsigned threads)
        : door(new std::atomic<std::uint64_t>[threads]),
          nextTick(shards, kTickNever), lower(shards, kTickNever),
          active(shards, 0), woken(threads, 0)
    {
        for (unsigned t = 0; t < threads; ++t)
            door[t].store(0, std::memory_order_relaxed);
    }

    /** Woken threads still inside the current round. */
    std::atomic<std::uint32_t> pending{0};

    /** Per-thread doorbell/sense word (see above). */
    std::unique_ptr<std::atomic<std::uint64_t>[]> door;

    /** Rounds decided so far; only the coordinator writes it. */
    std::uint64_t round = 0;

    // Decision inputs/outputs. Written by the coordinator, published
    // to the woken threads by the doorbell release/acquire pair.
    // nextTick is re-published by each unit's executor after its
    // window runs; nothing reads it again until the next decide(),
    // which the thread-counted barrier orders after every executor's
    // writes.
    Tick limit = kTickNever;
    std::vector<Tick> nextTick;
    std::vector<Tick> lower;
    std::vector<char> active;

    /** Threads participating in the current round. */
    std::vector<char> woken;

    Tick windowStart = 0;
    Tick windowEnd = kTickNever;
    RunStatus status = RunStatus::Drained;

    std::mutex m;
    std::condition_variable cv;
    std::uint64_t generation = 0;
    bool shutdown = false;

    std::vector<std::thread> threads;
};

ShardedEngine::ShardedEngine(unsigned shards, ExecPolicy exec)
    : exec_(exec), windowDist_(kWindowBuckets),
      epoch_(std::chrono::steady_clock::now())
{
    NC_ASSERT(shards >= 1, "a system needs at least one shard");
    engines_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s)
        engines_.push_back(std::make_unique<Engine>());
    stallTicks_.assign(shards, 0);
    minOutLatency_.assign(shards, kTickNever);
    hostSpans_.resize(shards);

    threads_ = exec.threads == 0 ? shards : exec.threads;
    threads_ = std::clamp(threads_, 1u, shards);
    exec_.threads = threads_;
    coveredStall_.assign(threads_, 0);

    board_.init(shards, threads_);
    phaseClocks_.resize(threads_);
    for (unsigned s = 0; s < shards; ++s)
        engines_[s]->setProgressCell(&board_.cell(s));

    if (shards > 1) {
        coord_ = std::make_unique<Coordination>(shards, threads_);
        for (unsigned t = 1; t < threads_; ++t)
            coord_->threads.emplace_back(
                [this, t] { workerMain(t); });
    }
}

ShardedEngine::~ShardedEngine()
{
    if (coord_) {
        {
            std::lock_guard<std::mutex> lk(coord_->m);
            coord_->shutdown = true;
        }
        coord_->cv.notify_all();
        for (auto &t : coord_->threads)
            t.join();
    }
}

void
ShardedEngine::registerPort(CrossShardPort &port)
{
    NC_ASSERT(port.srcShard() < numShards() &&
                  port.dstShard() < numShards(),
              "cross-shard port references an unknown shard");
    NC_ASSERT(port.srcShard() != port.dstShard(),
              "same-shard channels must not register for exchange");
    NC_ASSERT(port.minLatency() >= 1,
              "cross-shard port needs a positive wire latency");
    ports_.push_back(&port);
    // Flits leave the source shard and credits leave the destination,
    // so the channel bounds the earliest departure of both endpoints.
    minOutLatency_[port.srcShard()] =
        std::min(minOutLatency_[port.srcShard()], port.minLatency());
    minOutLatency_[port.dstShard()] =
        std::min(minOutLatency_[port.dstShard()], port.minLatency());
}

/**
 * Round coordinator: every woken thread of the previous round has
 * finished its units and arrived; every other thread is parked on its
 * doorbell. Seal the channel outboxes, derive the per-shard earliest
 * runnable ticks, pick the next window and its active set, choose
 * which threads to wake, and ring exactly those doorbells (all of them
 * when the drain is over). Exclusive access throughout, so plain
 * writes are safe; every input is pre-barrier
 * state, so any coordinator thread computes the same decision —
 * determinism does not depend on which thread arrives last.
 */
void
ShardedEngine::decide() noexcept
{
    Coordination &c = *coord_;
    const unsigned n = numShards();

    // Seal: outboxes written during the window move to the import
    // side; sealed entries whose destination stayed parked remain
    // queued and keep contributing to the lower bounds below.
    for (CrossShardPort *port : ports_)
        port->sealExports();

    // Earliest runnable tick per shard: its own event queue or a
    // sealed cross-shard arrival addressed to it. Parked shards'
    // published next-event ticks stay valid — a shard's engine only
    // runs inside its own unit, on its home thread.
    for (unsigned s = 0; s < n; ++s)
        c.lower[s] = c.nextTick[s];
    for (const CrossShardPort *port : ports_) {
        c.lower[port->dstShard()] =
            std::min(c.lower[port->dstShard()],
                     port->earliestSealedArrivalAtDst());
        c.lower[port->srcShard()] =
            std::min(c.lower[port->srcShard()],
                     port->earliestSealedArrivalAtSrc());
    }

    Tick m = kTickNever;
    for (unsigned s = 0; s < n; ++s)
        m = std::min(m, c.lower[s]);

    if (m == kTickNever || m > c.limit) {
        c.status =
            m == kTickNever ? RunStatus::Drained : RunStatus::LimitHit;
        ++c.round;
        publishRound();
        const std::uint64_t ring = 2 * c.round + 1;
        for (unsigned t = 0; t < threads_; ++t) {
            c.door[t].store(ring, std::memory_order_release);
            c.door[t].notify_one();
        }
        return;
    }

    // Shard s cannot execute anything before lower[s], hence cannot
    // put anything on a wire before lower[s] either; the earliest it
    // can affect another shard is lower[s] + L_s with L_s the fastest
    // channel leaving it. Shards that cannot emit impose no bound —
    // when nobody can, everyone drains ahead in one unbounded stride.
    Tick window_end = kTickNever;
    for (unsigned s = 0; s < n; ++s) {
        if (minOutLatency_[s] == kTickNever)
            continue;
        const Tick horizon = satAdd(c.lower[s], minOutLatency_[s]);
        if (horizon != kTickNever)
            window_end = std::min(window_end, horizon - 1);
    }
    window_end = std::min(window_end, c.limit);
    NC_ASSERT(window_end >= m, "quantum window excludes its own start");

    c.windowStart = m;
    c.windowEnd = window_end;
    ++quantaExecuted_;
    if (window_end != kTickNever) {
        const double width = static_cast<double>(window_end - m + 1);
        windowDist_.sample(width);
        windowAvg_.sample(width);
    }

    // Active set: shards with anything runnable inside the window.
    // Everyone else sleeps through the round — no spinning through
    // empty quanta, no barrier slot. Wake exactly the home threads of
    // the active shards.
    std::uint32_t actives = 0;
    std::fill(c.woken.begin(), c.woken.end(), 0);
    std::uint32_t woken = 0;
    for (unsigned s = 0; s < n; ++s) {
        c.active[s] = c.lower[s] <= window_end ? 1 : 0;
        if (!c.active[s])
            continue;
        ++actives;
        if (!c.woken[homeThread(s)]) {
            c.woken[homeThread(s)] = 1;
            ++woken;
        }
    }
    idleParks_ += n - actives;
    if (woken == 1) {
        // Solo round: the coordinator role lands on (or migrates to)
        // the only participating thread and no rendezvous happens.
        ++barrierRoundsSkipped_;
    }

    c.pending.store(woken, std::memory_order_release);
    ++c.round;
    publishRound();

    if (hostTimeline_) {
        RoundRecord rec{c.round, hostSeconds(), actives, woken};
        if (profiling_) {
            for (unsigned p = 0; p < obs::kPhaseCount; ++p)
                rec.phaseSeconds[p] =
                    board_.phaseSeconds(static_cast<obs::Phase>(p));
        }
        roundLog_.push_back(rec);
    }

    // Ring exactly `woken` doorbells and stop: the loop must not touch
    // c.woken after the final ring. Once the last woken thread's door
    // is released, that thread can execute, arrive last, and start the
    // NEXT round's decide() — which rebuilds c.woken. Every read here
    // is sequenced before some later release store on a door whose
    // thread the next round waits on, so stopping at the final ring is
    // what keeps this coordinator ordered before its successor.
    const std::uint64_t ring = 2 * c.round;
    for (unsigned t = 0, rung = 0; rung < woken; ++t) {
        if (!c.woken[t])
            continue;
        c.door[t].store(ring, std::memory_order_release);
        c.door[t].notify_one();
        ++rung;
    }
}

/**
 * Execute shard @p s's whole-window unit on thread @p t: drain the
 * sealed mailboxes addressed to the shard (registration order — the
 * serial order), run the window, account the window-tail stall, and
 * re-publish the shard's next-event tick for the next decide(). Returns
 * the unit's tail stall so the caller can mark it covered if this
 * thread goes on to run another unit this round.
 */
std::uint64_t
ShardedEngine::execUnit(unsigned s, unsigned t)
{
    Coordination &c = *coord_;
    Engine &engine = *engines_[s];

    // Import phase: flits materialize on the destination shard, credit
    // returns come home to the source side, in registration order.
    phaseSwitch(t, obs::Phase::Ingress);
    for (CrossShardPort *port : ports_) {
        if (port->dstShard() == s)
            port->importAtDst();
        if (port->srcShard() == s)
            port->importAtSrc();
    }

    const Tick window_end = c.windowEnd;
    const double host_begin = hostTimeline_ ? hostSeconds() : 0;
    phaseSwitch(t, obs::Phase::Execute);
    engine.runWindow(window_end);

    // Idle ticks at the window tail: the window forced this shard to
    // wait even though it had nothing left to simulate. An unbounded
    // drain-ahead window has no tail by construction.
    std::uint64_t stall = 0;
    if (window_end != kTickNever) {
        const Tick resume = std::max(engine.now() + 1, c.windowStart);
        stall = (window_end + 1) - std::min(window_end + 1, resume);
        stallTicks_[s] += stall;
    }

    if (hostTimeline_) {
        // hostSpans_[s] is only ever touched by the shard's home
        // thread.
        QuantumSpan span;
        span.windowStart = c.windowStart;
        span.windowEnd = window_end == kTickNever ? engine.now()
                                                  : window_end;
        span.hostBegin = host_begin;
        span.hostEnd = hostSeconds();
        span.stallTicks = stall;
        span.executor = t;
        hostSpans_[s].push_back(span);
    }

    c.nextTick[s] = engine.nextEventTick();

    // Live-progress publish: the home thread is the only writer of the
    // shard's cell.
    obs::ShardCell &cell = board_.cell(s);
    cell.tick.store(engine.now(), std::memory_order_relaxed);
    cell.events.store(engine.eventsExecuted(), std::memory_order_relaxed);
    cell.backlog.store(engine.pendingEvents(), std::memory_order_relaxed);
    cell.nextTick.store(c.nextTick[s], std::memory_order_relaxed);
    return stall;
}

void
ShardedEngine::threadLoop(unsigned t)
{
    Coordination &c = *coord_;
    const unsigned n = numShards();

    // Join the drain: publish the home shards' earliest pending ticks,
    // then arrive. The last thread in becomes the coordinator of the
    // first round.
    for (unsigned s = t; s < n; s += threads_)
        c.nextTick[s] = engines_[s]->nextEventTick();
    phaseOpen(t, obs::Phase::BarrierWait);
    std::uint64_t seen = c.door[t].load(std::memory_order_acquire);
    if (c.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
        decide();

    for (;;) {
        c.door[t].wait(seen, std::memory_order_acquire);
        seen = c.door[t].load(std::memory_order_acquire);
        if (seen & 1) {
            phaseFlush(t);
            return; // drain over; c.status is already published
        }
        // Run the active home units in ascending shard order. When
        // this thread begins another unit in the same round, the
        // previous unit's window-tail stall cost no idle host time —
        // the thread was busy, not barrier-bound.
        std::uint64_t prev_stall = 0;
        unsigned prev_shard = 0;
        bool have_prev = false;
        for (unsigned s = t; s < n; s += threads_) {
            if (!c.active[s])
                continue;
            if (have_prev) {
                coveredStall_[t] += prev_stall;
                if (hostTimeline_)
                    hostSpans_[prev_shard].back().covered = true;
            }
            prev_stall = execUnit(s, t);
            prev_shard = s;
            have_prev = true;
        }

        // Arrive only after the last unit: the coordinator must not
        // rewrite the round's inputs while this thread still reads them.
        phaseSwitch(t, obs::Phase::BarrierWait);
        if (c.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
            decide();
    }
}

void
ShardedEngine::workerMain(unsigned t)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(coord_->m);
            coord_->cv.wait(lk, [&] {
                return coord_->shutdown || coord_->generation != seen;
            });
            if (coord_->shutdown)
                return;
            seen = coord_->generation;
        }
        threadLoop(t);
    }
}

RunStatus
ShardedEngine::run(Tick limit)
{
    if (numShards() == 1) {
        Engine &engine = *engines_[0];
        const Tick start_tick = engine.now();
        const double host_begin = hostTimeline_ ? hostSeconds() : 0;
        phaseOpen(0, obs::Phase::Execute);
        const RunStatus status = engine.run(limit);
        phaseFlush(0);
        if (hostTimeline_) {
            // Serial runs have no quanta; record the whole drain as
            // one span so the host-time trace is populated either way.
            QuantumSpan span;
            span.windowStart = start_tick;
            span.windowEnd = engine.now();
            span.hostBegin = host_begin;
            span.hostEnd = hostSeconds();
            hostSpans_[0].push_back(span);
        }
        obs::ShardCell &cell = board_.cell(0);
        cell.tick.store(engine.now(), std::memory_order_relaxed);
        cell.events.store(engine.eventsExecuted(),
                          std::memory_order_relaxed);
        cell.backlog.store(engine.pendingEvents(),
                           std::memory_order_relaxed);
        cell.nextTick.store(engine.nextEventTick(),
                            std::memory_order_relaxed);
        return status;
    }

    {
        std::lock_guard<std::mutex> lk(coord_->m);
        coord_->limit = limit;
        // Every thread joins the first round; a worker still unwinding
        // from the previous drain re-arrives through workerMain, so
        // the countdown never releases early.
        coord_->pending.store(threads_, std::memory_order_release);
        ++coord_->generation;
    }
    coord_->cv.notify_all();
    threadLoop(0); // the caller drives thread 0
    return coord_->status;
}

void
ShardedEngine::alignClocks()
{
    const Tick global = now();
    for (auto &engine : engines_)
        engine->advanceNow(global);
}

Tick
ShardedEngine::now() const
{
    Tick global = 0;
    for (const auto &engine : engines_)
        global = std::max(global, engine->now());
    return global;
}

std::uint64_t
ShardedEngine::eventsExecuted() const
{
    std::uint64_t sum = 0;
    for (const auto &engine : engines_)
        sum += engine->eventsExecuted();
    return sum;
}

std::vector<std::pair<std::string, std::uint64_t>>
ShardedEngine::eventLedger() const
{
    std::array<std::uint64_t, kMaxEventKinds> sum{};
    for (const auto &engine : engines_) {
        for (std::size_t k = 0; k < kMaxEventKinds; ++k)
            sum[k] += engine->eventsByKind()[k];
    }
    std::vector<std::pair<std::string, std::uint64_t>> ledger;
    for (std::size_t k = 0; k < kMaxEventKinds; ++k) {
        if (sum[k] != 0) {
            ledger.emplace_back(
                eventKindName(static_cast<EventKind>(k)), sum[k]);
        }
    }
    std::sort(ledger.begin(), ledger.end());
    return ledger;
}

std::uint64_t
ShardedEngine::totalBarrierStallTicks() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t ticks : stallTicks_)
        sum += ticks;
    return sum;
}

std::uint64_t
ShardedEngine::coveredStallTicks() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t ticks : coveredStall_)
        sum += ticks;
    return sum;
}

std::uint64_t
ShardedEngine::residualStallTicks() const
{
    return totalBarrierStallTicks() - coveredStallTicks();
}

void
ShardedEngine::phaseOpen(unsigned t, obs::Phase p)
{
    if (!profiling_)
        return;
    PhaseClock &pc = phaseClocks_[t];
    pc.open = true;
    pc.cur = p;
    pc.last = std::chrono::steady_clock::now();
}

void
ShardedEngine::phaseSwitch(unsigned t, obs::Phase next)
{
    if (!profiling_)
        return;
    PhaseClock &pc = phaseClocks_[t];
    const auto now = std::chrono::steady_clock::now();
    if (pc.open) {
        board_.addPhaseNanos(
            t, pc.cur,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    now - pc.last)
                    .count()));
    }
    pc.open = true;
    pc.cur = next;
    pc.last = now;
}

void
ShardedEngine::phaseFlush(unsigned t)
{
    if (!profiling_)
        return;
    PhaseClock &pc = phaseClocks_[t];
    if (pc.open) {
        board_.addPhaseNanos(
            t, pc.cur,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - pc.last)
                    .count()));
    }
    pc.open = false;
}

void
ShardedEngine::publishRound()
{
    Coordination &c = *coord_;
    const unsigned n = numShards();

    board_.round.store(c.round, std::memory_order_relaxed);
    board_.windowStart.store(c.windowStart, std::memory_order_relaxed);
    board_.windowEnd.store(c.windowEnd, std::memory_order_relaxed);
    board_.quanta.store(quantaExecuted_, std::memory_order_relaxed);
    board_.idleParks.store(idleParks_, std::memory_order_relaxed);

    // The executors' tallies are plain words, but every executor's
    // writes happen-before the coordinator via the thread-counted
    // arrival countdown, so summing them here is race-free.
    board_.stallTicks.store(totalBarrierStallTicks(),
                            std::memory_order_relaxed);

    for (unsigned s = 0; s < n; ++s)
        board_.cell(s).nextTick.store(c.nextTick[s],
                                      std::memory_order_relaxed);
}

void
ShardedEngine::dumpFlightRecord(std::ostream &os) const
{
    const unsigned n = numShards();
    const auto tick_str = [](Tick t) {
        return t == kTickNever ? std::string("never")
                               : std::to_string(t);
    };

    os << "--- flight record: " << n << " shard(s) x " << threads_
       << " thread(s), barrier round "
       << board_.round.load(std::memory_order_relaxed) << ", window ["
       << tick_str(board_.windowStart.load(std::memory_order_relaxed))
       << ", "
       << tick_str(board_.windowEnd.load(std::memory_order_relaxed))
       << "], quanta "
       << board_.quanta.load(std::memory_order_relaxed)
       << ", stall_ticks "
       << board_.stallTicks.load(std::memory_order_relaxed)
       << ", idle_parks "
       << board_.idleParks.load(std::memory_order_relaxed) << " ---\n";

    unsigned suspect = n;
    Tick suspect_next = kTickNever;
    for (unsigned s = 0; s < n; ++s) {
        const obs::ShardCell &cell = board_.cell(s);
        const Tick next =
            cell.nextTick.load(std::memory_order_relaxed);
        const std::uint64_t backlog =
            cell.backlog.load(std::memory_order_relaxed);
        os << "shard " << s << ": tick="
           << cell.tick.load(std::memory_order_relaxed)
           << " events=" << cell.events.load(std::memory_order_relaxed)
           << " backlog=" << backlog << " next=" << tick_str(next)
           << " serve_inflight="
           << cell.serveInflight.load(std::memory_order_relaxed)
           << "\n";
        if (backlog > 0 && next < suspect_next) {
            suspect = s;
            suspect_next = next;
        }
    }

    if (coord_) {
        os << "doorbells:";
        for (unsigned t = 0; t < threads_; ++t)
            os << ' ' << coord_->door[t].load(std::memory_order_relaxed);
        os << "\n";
    }

    std::size_t pending_exports = 0;
    for (std::size_t i = 0; i < ports_.size(); ++i) {
        const std::size_t pending = ports_[i]->pendingExports();
        pending_exports += pending;
        if (pending != 0) {
            os << "port #" << i << " (" << ports_[i]->srcShard()
               << " -> " << ports_[i]->dstShard() << "): " << pending
               << " pending exports\n";
        }
    }
    os << "pending cross-shard exports: " << pending_exports << "\n";

    constexpr std::size_t kTailRecords = 8;
    for (unsigned s = 0; s < n; ++s) {
        const obs::TraceBuffer *tb = engines_[s]->trace();
        if (tb == nullptr || tb->records().empty())
            continue;
        const auto &recs = tb->records();
        const std::size_t first =
            recs.size() > kTailRecords ? recs.size() - kTailRecords : 0;
        os << "shard " << s << " trace tail (" << recs.size()
           << " records):\n";
        for (std::size_t i = first; i < recs.size(); ++i) {
            const obs::TraceRecord &rec = recs[i];
            os << "  tick=" << rec.tick << " stage="
               << obs::traceStageName(
                      static_cast<obs::TraceStage>(rec.stage))
               << " lane=" << rec.lane << " id=" << rec.id << "\n";
        }
    }

    if (suspect < n) {
        os << "suspect: shard " << suspect << " stuck at barrier round "
           << board_.round.load(std::memory_order_relaxed)
           << " (earliest next-event tick " << tick_str(suspect_next)
           << " with non-empty backlog)\n";
    } else {
        os << "suspect: none (no shard reports a backlog)\n";
    }
}

double
ShardedEngine::hostSeconds() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

void
ShardedEngine::auditTeardown() const
{
    if (numShards() == 1)
        return;
    for (std::size_t i = 0; i < ports_.size(); ++i) {
        const std::size_t pending = ports_[i]->pendingExports();
        if (pending != 0) {
            NC_PANIC("teardown census: cross-shard port #", i, " (",
                     ports_[i]->srcShard(), " -> ",
                     ports_[i]->dstShard(), ") still holds ", pending,
                     " queued exports; an aborted run left in-flight "
                     "state whose pooled arenas die with the worker "
                     "threads");
        }
    }
    for (unsigned s = 0; s < numShards(); ++s) {
        const std::size_t pending = engines_[s]->pendingEvents();
        if (pending != 0) {
            NC_PANIC("teardown census: shard ", s, " still has ", pending,
                     " pending events; pooled handles captured by those "
                     "events outlive the thread-local arenas that own "
                     "them");
        }
    }
}

} // namespace netcrafter::sim
