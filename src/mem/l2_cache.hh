/**
 * @file
 * Banked, write-back L2 cache (Table 2: 4 MB/GPU, 16 ways, 16 banks,
 * 100-cycle lookup, 64-entry MSHR). Shared across GPUs: remote GPUs reach
 * it through their RDMA engines. PTEs are cached here alongside data
 * (Section 2.3).
 */

#ifndef NETCRAFTER_MEM_L2_CACHE_HH
#define NETCRAFTER_MEM_L2_CACHE_HH

#include <cstdint>

#include "src/mem/dram.hh"
#include "src/mem/mshr.hh"
#include "src/mem/tag_array.hh"
#include "src/sim/ring.hh"
#include "src/sim/sim_object.hh"
#include "src/sim/small_fn.hh"

namespace netcrafter::mem {

/** Configuration for one L2 cache partition. */
struct L2Params
{
    std::uint64_t sizeBytes = 4ull * 1024 * 1024;
    std::uint32_t assoc = 16;
    std::uint32_t banks = 16;
    Tick lookupLatency = 100;
    std::size_t mshrEntries = 64;
};

/**
 * One GPU's L2 partition. Line-granular: callers pass 64B-aligned line
 * addresses. Misses fetch from the attached DRAM; dirty evictions write
 * back (consuming DRAM bandwidth, nobody waits on them).
 */
class L2Cache : public sim::SimObject
{
  public:
    using Callback = sim::SmallFn;

    L2Cache(sim::Engine &engine, std::string name, const L2Params &params,
            Dram &dram);

    /** Read the full line at @p line; @p done fires with data ready. */
    void read(Addr line, Callback done);

    /**
     * Write (allocate) the line at @p line; @p done fires when the write
     * is ordered in the cache.
     */
    void write(Addr line, Callback done);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    /** Accesses parked because the MSHR file was full. */
    std::uint64_t mshrStalls() const { return mshrStalls_; }

  private:
    struct Waiter
    {
        bool isWrite = false;
        Callback done;
    };

    /** An access waiting for a free MSHR entry. */
    struct Parked
    {
        Addr line = 0;
        Waiter waiter;
    };

    void start(Addr line, bool is_write, Callback done);
    Tick bankReadyTime(Addr line);
    void finishFill(Addr line);
    void drainParked();

    L2Params params_;
    TagArray tags_;
    Dram &dram_;
    Mshr<Waiter> mshr_;
    std::vector<Tick> bankNextFree_;
    sim::Ring<Parked> parked_;

    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t mshrStalls_ = 0;
    std::uint16_t traceLane_ = 0;
};

} // namespace netcrafter::mem

#endif // NETCRAFTER_MEM_L2_CACHE_HH
