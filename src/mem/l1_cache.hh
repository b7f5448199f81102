/**
 * @file
 * Per-CU write-through L1 vector cache (Table 2: 64 KB, 20-cycle lookup,
 * 32-entry MSHR) with optional 16/8/4-byte sectoring. The L1 does not
 * decide how much data a fill returns — the GPU system does (full line,
 * trimmed sector, or sector-cache fill); the L1 simply installs whatever
 * sector mask the fill delivered and replays waiters.
 */

#ifndef NETCRAFTER_MEM_L1_CACHE_HH
#define NETCRAFTER_MEM_L1_CACHE_HH

#include <cstdint>

#include "src/mem/mshr.hh"
#include "src/mem/tag_array.hh"
#include "src/sim/ring.hh"
#include "src/sim/sim_object.hh"
#include "src/sim/small_fn.hh"

namespace netcrafter::mem {

class L1Cache;

/** Configuration for one L1 vector cache. */
struct L1Params
{
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 4;
    Tick lookupLatency = 20;
    std::size_t mshrEntries = 32;

    /** Sector size; kCacheLineBytes for an unsectored cache. */
    std::uint32_t sectorBytes = kCacheLineBytes;
};

/** A miss forwarded below the L1 (to the local L2 or a remote GPU). */
struct FillRequest
{
    Addr line = 0;

    /** First byte the wavefront needs, relative to the line. */
    std::uint32_t offset = 0;

    /** Distinct bytes the wavefront needs from the line. */
    std::uint32_t bytes = 0;

    /** Sectors the L1 wants installed (subset may arrive). */
    SectorMask neededSectors = 0;

    bool isWrite = false;

    /** The L1 the request completes into: a typed completion handle. */
    L1Cache *l1 = nullptr;

    /**
     * Completion: @p filled is the sector mask actually delivered
     * (ignored for writes). Must be invoked exactly once.
     */
    void done(SectorMask filled) const;
};

/**
 * The L1 vector cache. access() returns false when the MSHR file is
 * exhausted; the CU retries next cycle (modelling issue stall).
 */
class L1Cache : public sim::SimObject
{
  public:
    using Callback = sim::SmallFn;
    using FillFn = sim::InlineFn<void(FillRequest)>;

    L1Cache(sim::Engine &engine, std::string name, const L1Params &params,
            FillFn below);

    /**
     * Issue a coalesced access to @p line needing the byte span
     * [@p offset, @p offset + @p bytes). Reads call @p done when the
     * data is in the cache; writes complete (for the wavefront) at
     * acceptance — the write-through ack only frees the tracking slot,
     * so a write takes no @p done.
     *
     * @return false when no MSHR/write slot is available (retry later).
     */
    bool access(Addr line, std::uint32_t offset, std::uint32_t bytes,
                bool is_write, Callback done);

    /**
     * Install a hook invoked whenever an MSHR or write slot frees (a
     * fill landed or a write-through ack returned). The CU uses it to
     * park its issue port on rejection instead of re-polling every
     * cycle (CuParams::wakeOnL1Unblock).
     */
    void setUnblockHook(Callback fn) { onUnblock_ = std::move(fn); }

    std::uint64_t readAccesses() const { return readAccesses_; }
    std::uint64_t readHits() const { return readHits_; }
    std::uint64_t readMisses() const { return readMisses_; }
    std::uint64_t writeAccesses() const { return writeAccesses_; }
    std::uint64_t rejections() const { return rejections_; }

    /**
     * Counter bumped by every state change that can turn a refused
     * access into an accepted one: an MSHR allocation, merge or
     * release, a write slot taken or freed, and a tag fill. While it is
     * unchanged, re-offering an access that was refused is refused
     * again with no other effect, so a caller may skip the call and
     * report the refusal through countRepeatedRejection() instead.
     */
    std::uint64_t stateEpoch() const { return stateEpoch_; }

    /** Record a refusal the caller knows access() would repeat. */
    void countRepeatedRejection() { ++rejections_; }

    /** Complete @p req (issued by this L1) with @p filled sectors. */
    void completeFill(const FillRequest &req, SectorMask filled);

    /** Misses per kilo "accesses" need instruction counts; the CU owns
     *  those, so it reads raw miss counts from here. */

  private:
    struct Waiter
    {
        SectorMask needed;
        std::uint32_t offset;
        std::uint32_t bytes;
        Callback done;
    };

    /** A merged read the fill did not cover, replayed next cycle. */
    struct Retry
    {
        Addr line = 0;
        std::uint32_t offset = 0;
        std::uint32_t bytes = 0;
        Callback done;
    };

    /** access() for a read; consumes @p done only when accepted. */
    bool accessRead(Addr line, std::uint32_t offset, std::uint32_t bytes,
                    Callback &done);
    void handleFill(Addr line, SectorMask filled);
    void retryAccess(Addr line, std::uint32_t offset, std::uint32_t bytes,
                     Callback done);
    void retryNext();

    L1Params params_;
    TagArray tags_;
    FillFn below_;
    Mshr<Waiter> mshr_;

    /**
     * Pending replays in schedule order. Every replay fires exactly one
     * cycle after it was queued, so the replay events fire in queue
     * order and each pops the front.
     */
    sim::Ring<Retry> retries_;
    std::size_t outstandingWrites_ = 0;
    std::uint64_t stateEpoch_ = 0;
    Callback onUnblock_;

    std::uint64_t readAccesses_ = 0;
    std::uint64_t readHits_ = 0;
    std::uint64_t readMisses_ = 0;
    std::uint64_t writeAccesses_ = 0;
    std::uint64_t rejections_ = 0;
};

inline void
FillRequest::done(SectorMask filled) const
{
    l1->completeFill(*this, filled);
}

} // namespace netcrafter::mem

#endif // NETCRAFTER_MEM_L1_CACHE_HH
