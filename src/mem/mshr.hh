/**
 * @file
 * Miss Status Holding Register file: tracks outstanding misses per block
 * address and merges secondary misses onto the primary one.
 */

#ifndef NETCRAFTER_MEM_MSHR_HH
#define NETCRAFTER_MEM_MSHR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/logging.hh"
#include "src/sim/types.hh"

namespace netcrafter::mem {

/**
 * MSHR file keyed by block address. @tparam Payload is whatever the
 * cache needs to resume a waiting access when the fill arrives.
 *
 * The file is a flat table scanned linearly: MSHR files hold 32-64
 * entries, where a scan over a contiguous key array beats hashing.
 * Releasing an entry moves the last one into its slot; each entry's
 * waiters stay in merge order. Released waiter lists come back through
 * recycle(), so allocation and merging reuse list storage instead of
 * allocating per miss.
 */
template <typename Payload>
class Mshr
{
  public:
    explicit Mshr(std::size_t entries) : entries_(entries) {}

    /** True when no new primary miss can be tracked. */
    bool full() const { return keys_.size() >= entries_; }

    /** True when a miss for @p addr is already outstanding. */
    bool outstanding(Addr addr) const { return find(addr) != kNone; }

    /**
     * Register a primary miss for @p addr. Requires !outstanding(addr)
     * and !full().
     */
    void
    allocate(Addr addr, Payload payload)
    {
        NC_ASSERT(!outstanding(addr), "duplicate MSHR allocation");
        NC_ASSERT(!full(), "MSHR overflow");
        keys_.push_back(addr);
        if (spare_.empty()) {
            waiters_.emplace_back();
        } else {
            waiters_.push_back(std::move(spare_.back()));
            spare_.pop_back();
        }
        waiters_.back().push_back(std::move(payload));
        ++allocations_;
    }

    /** Merge a secondary miss onto an outstanding entry. */
    void
    merge(Addr addr, Payload payload)
    {
        const std::size_t i = find(addr);
        NC_ASSERT(i != kNone, "merge without outstanding entry");
        waiters_[i].push_back(std::move(payload));
        ++merges_;
    }

    /**
     * Retire the entry for @p addr, returning all waiting payloads.
     * Hand the list back through recycle() once it has been drained.
     */
    std::vector<Payload>
    release(Addr addr)
    {
        const std::size_t i = find(addr);
        NC_ASSERT(i != kNone, "release without outstanding entry");
        std::vector<Payload> waiters = std::move(waiters_[i]);
        if (i + 1 != keys_.size()) {
            keys_[i] = keys_.back();
            waiters_[i] = std::move(waiters_.back());
        }
        keys_.pop_back();
        waiters_.pop_back();
        return waiters;
    }

    /** Return a released waiter list's storage for reuse. */
    void
    recycle(std::vector<Payload> &&waiters)
    {
        waiters.clear();
        spare_.push_back(std::move(waiters));
    }

    std::size_t size() const { return keys_.size(); }
    std::size_t capacity() const { return entries_; }
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t merges() const { return merges_; }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    std::size_t
    find(Addr addr) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] == addr)
                return i;
        }
        return kNone;
    }

    std::size_t entries_;

    /** Outstanding block addresses; waiters_[i] belongs to keys_[i]. */
    std::vector<Addr> keys_;
    std::vector<std::vector<Payload>> waiters_;
    /** Drained waiter lists kept for the next allocation. */
    std::vector<std::vector<Payload>> spare_;
    std::uint64_t allocations_ = 0;
    std::uint64_t merges_ = 0;
};

} // namespace netcrafter::mem

#endif // NETCRAFTER_MEM_MSHR_HH
