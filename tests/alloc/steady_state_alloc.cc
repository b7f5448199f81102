/**
 * @file
 * Steady-state allocation census of the cycle-fidelity event loop.
 *
 * This executable replaces the global operator new/delete with counting
 * versions, so it is built on its own rather than into netcrafter_tests.
 * It simulates one GoldenCounts point (PR under full NetCrafter, seed 1,
 * scale 0.05) and bounds the heap allocations made inside runFor() per
 * executed event. What remains is warm-up: pools, rings, waiter lists
 * and tag chunks growing to their high-water marks. A per-request or
 * per-event allocation on the hot path pushes the ratio far past the
 * bound (std::function completions and node-based maps ran at 0.4).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/exp/figures.hh"
#include "src/gpu/system.hh"
#include "src/sim/small_fn.hh"
#include "src/workloads/workload.hh"

namespace {

bool counting = false;
std::uint64_t allocations = 0;

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (counting)
        ++allocations;
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace netcrafter {
namespace {

/** Heap allocations per event allowed inside runFor(). */
constexpr double kMaxAllocsPerEvent = 0.01;

TEST(SteadyStateAllocation, RunForAllocatesUnderOnePerHundredEvents)
{
    config::SystemConfig cfg = exp::fullNetcrafter();
    cfg.seed = 1;
    gpu::MultiGpuSystem system(cfg);
    auto wl = workloads::makeWorkload("PR");
    const std::uint64_t fallbacks = sim::SmallFn::heapAllocations();

    allocations = 0;
    counting = true;
    const sim::RunStatus status = system.runFor(*wl, 0.05);
    counting = false;

    ASSERT_EQ(status, sim::RunStatus::Drained);
    const std::uint64_t events = system.engine().eventsExecuted();
    ASSERT_GT(events, 0u);
    const double per_event =
        static_cast<double>(allocations) / static_cast<double>(events);
    RecordProperty("allocations", static_cast<int>(allocations));
    EXPECT_LE(per_event, kMaxAllocsPerEvent)
        << allocations << " allocations over " << events << " events";
    EXPECT_EQ(sim::SmallFn::heapAllocations(), fallbacks)
        << "a callback outgrew the inline buffer";
}

} // namespace
} // namespace netcrafter
