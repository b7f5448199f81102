/**
 * @file
 * GPU Memory Management Unit (Section 2.3): a Page Walk Cache holding
 * upper-level (1-3) page table entries plus a pool of parallel page
 * table walkers. Depending on the PWC longest-prefix match a walk costs
 * 1 to 4 PTE fetches, each of which goes through the L2 cache of the GPU
 * owning that page-table page — possibly across the inter-cluster
 * network as PageTableReq/PageTableRsp packets.
 */

#ifndef NETCRAFTER_VM_GMMU_HH
#define NETCRAFTER_VM_GMMU_HH

#include <cstdint>
#include <vector>

#include "src/sim/flat_map.hh"
#include "src/sim/ring.hh"
#include "src/sim/sim_object.hh"
#include "src/sim/small_fn.hh"
#include "src/vm/page_table.hh"
#include "src/vm/tlb.hh"

namespace netcrafter::vm {

/** GMMU configuration (Table 2). */
struct GmmuParams
{
    std::uint32_t pwcEntries = 32;
    Tick pwcLatency = 10;
    std::uint32_t walkers = 16;
};

/** Small fully-associative LRU cache of upper-level PTEs. */
class PageWalkCache
{
  public:
    explicit PageWalkCache(std::uint32_t entries) : entries_(entries) {}

    /**
     * Deepest level in {1..3} whose entry for @p vaddr is cached such
     * that all shallower levels are implied resolved. Touches the
     * matching entry's recency. Returns 0 when nothing matches (full
     * walk needed).
     */
    int deepestMatch(Addr vaddr);

    /** Install the entry of @p level (1..3) covering @p vaddr. */
    void insert(int level, Addr vaddr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t lookups() const { return lookups_; }

  private:
    static Addr
    key(int level, Addr vaddr)
    {
        return (static_cast<Addr>(level) << 58) ^
               PageTable::prefix(level, vaddr);
    }

    struct Entry
    {
        Addr key;
        /** Recency stamp; the smallest is the LRU victim. */
        std::uint64_t lastUse;
    };

    /** The entry holding @p k, or nullptr. */
    Entry *find(Addr k);

    std::uint32_t entries_;
    /** At most entries_ entries, scanned linearly (the PWC is tiny). */
    std::vector<Entry> lines_;
    std::uint64_t useClock_ = 0;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t lookups_ = 0;
};

/** The GMMU: PWC + parallel walkers. */
class Gmmu : public sim::SimObject
{
  public:
    using Callback = sim::InlineFn<void(Translation)>;

    /**
     * Fetches one PTE (a memory read of the line holding it) and calls
     * back when the data arrived; local or remote is the GPU system's
     * concern.
     */
    using PteFetchFn =
        sim::InlineFn<void(const WalkStep &, sim::SmallFn)>;

    Gmmu(sim::Engine &engine, std::string name, const GmmuParams &params,
         const PageTable &page_table, PteFetchFn fetch);

    /**
     * Start (or join) a walk for @p vpn. Walks beyond the walker count
     * queue; the upstream TLB MSHRs bound how many can be pending.
     */
    void walk(Addr vpn, Callback done);

    std::uint64_t walksStarted() const { return walksStarted_; }
    std::uint64_t pteFetches() const { return pteFetches_; }
    const PageWalkCache &pwc() const { return pwc_; }

    /** Mean PTE fetches per completed walk. */
    double
    meanWalkLength() const
    {
        return walksCompleted_
                   ? static_cast<double>(pteFetches_) / walksCompleted_
                   : 0.0;
    }

  private:
    void beginNextWalk();
    void runWalk(Addr vpn, int level);
    void finishWalk(Addr vpn);

    GmmuParams params_;
    const PageTable &pageTable_;
    PteFetchFn fetch_;
    PageWalkCache pwc_;

    sim::WaitLists<Callback> waiters_;
    sim::Ring<Addr> queued_;
    std::uint32_t activeWalkers_ = 0;

    std::uint64_t walksStarted_ = 0;
    std::uint64_t walksCompleted_ = 0;
    std::uint64_t pteFetches_ = 0;
    std::uint16_t traceLane_ = 0;
};

} // namespace netcrafter::vm

#endif // NETCRAFTER_VM_GMMU_HH
