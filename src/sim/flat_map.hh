/**
 * @file
 * Allocation-light keyed tables for the request path.
 *
 * FlatMap is an open-addressing hash map from 64-bit keys (packet ids,
 * page numbers, line addresses) with linear probing and backward-shift
 * deletion: inserting and erasing reuse one flat array, so a table that
 * churns through millions of short-lived keys allocates only when it
 * grows past its high-water mark. std::unordered_map allocates a node
 * per insertion. Iteration order is unspecified, so callers must never
 * let it influence simulated behaviour.
 *
 * WaitLists keys FIFO lists of waiters (merged misses, held flits) by a
 * 64-bit key. All lists of one table thread through a shared node pool,
 * so storage is reused across keys and sized by the peak number of
 * waiters, not by the peak length of each list.
 */

#ifndef NETCRAFTER_SIM_FLAT_MAP_HH
#define NETCRAFTER_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/logging.hh"

namespace netcrafter::sim {

/** Open-addressing map from std::uint64_t (never ~0) to V. */
template <typename V>
class FlatMap
{
  public:
    /** Reserved key marking an empty slot. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    /** Value of @p key, or nullptr when absent. */
    V *
    find(std::uint64_t key)
    {
        const std::size_t i = indexOf(key);
        return i == kNone ? nullptr : &slots_[i].val;
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /**
     * The value of @p key, default-constructing it when absent. The
     * flag is true when the key was inserted. The pointer is valid
     * until the next insertion or removal.
     */
    std::pair<V *, bool>
    tryEmplace(std::uint64_t key)
    {
        NC_ASSERT(key != kEmpty, "FlatMap key collides with the empty "
                                 "marker");
        // Grow at 3/4 load: probe runs stay short, and page-table-sized
        // maps stay smaller than the node-based map they replace.
        if (4 * (size_ + 1) > 3 * slots_.size())
            rehash(slots_.empty() ? 16 : 2 * slots_.size());
        std::size_t i = home(key);
        for (; slots_[i].key != kEmpty; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return {&slots_[i].val, false};
        }
        slots_[i].key = key;
        ++size_;
        return {&slots_[i].val, true};
    }

    V &operator[](std::uint64_t key) { return *tryEmplace(key).first; }

    /**
     * Remove @p key, moving its value out (a default V when absent).
     * Later entries of the probe run shift back into the hole, so no
     * tombstones accumulate.
     */
    V
    take(std::uint64_t key)
    {
        std::size_t hole = indexOf(key);
        if (hole == kNone)
            return V{};
        V out = std::move(slots_[hole].val);
        for (std::size_t i = (hole + 1) & mask_; slots_[i].key != kEmpty;
             i = (i + 1) & mask_) {
            // An entry may fill the hole only if its home slot does not
            // lie cyclically in (hole, i].
            const std::size_t h = home(slots_[i].key);
            if (((i - h) & mask_) >= ((i - hole) & mask_)) {
                slots_[hole] = std::move(slots_[i]);
                hole = i;
            }
        }
        slots_[hole] = Slot{};
        --size_;
        return out;
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    struct Slot
    {
        std::uint64_t key = kEmpty;
        V val{};
    };

    std::size_t
    home(std::uint64_t key) const
    {
        // Fibonacci hashing: the high product bits mix every key bit.
        return static_cast<std::size_t>(
                   (key * 0x9E3779B97F4A7C15ull) >> 32) &
               mask_;
    }

    /** Slot index holding @p key, or kNone. */
    std::size_t
    indexOf(std::uint64_t key) const
    {
        if (size_ == 0)
            return kNone;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return i;
            if (slots_[i].key == kEmpty)
                return kNone;
        }
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old(capacity);
        std::swap(old, slots_);
        mask_ = capacity - 1;
        size_ = 0;
        for (Slot &s : old) {
            if (s.key != kEmpty)
                *tryEmplace(s.key).first = std::move(s.val);
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

/**
 * FIFO waiter lists keyed by a 64-bit key. The first add() for a key
 * starts its list (the primary miss); take() retires the key and
 * returns its waiters as a Chain that pop() drains in add order.
 * Popping frees each node before its waiter runs, so a waiter may
 * add() to the same table (re-entrancy) and reuse the node at once.
 */
template <typename W>
class WaitLists
{
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  public:
    /** The waiters of a retired key, in add order. */
    struct Chain
    {
        std::uint32_t head = kNil;

        bool empty() const { return head == kNil; }
    };

    /** Append @p w to @p key's list; true when the list is new. */
    bool
    add(std::uint64_t key, W w)
    {
        const std::uint32_t node = allocNode(std::move(w));
        auto [ends, fresh] = lists_.tryEmplace(key);
        if (fresh)
            ends->head = node;
        else
            nodes_[ends->tail].next = node;
        ends->tail = node;
        return fresh;
    }

    /** Retire @p key; the chain is empty when @p key had no list. */
    Chain take(std::uint64_t key) { return Chain{lists_.take(key).head}; }

    /** Move the first waiter out of @p chain, freeing its node. */
    W
    pop(Chain &chain)
    {
        NC_ASSERT(!chain.empty(), "pop() on an empty waiter chain");
        const std::uint32_t node = chain.head;
        W w = std::move(nodes_[node].w);
        chain.head = nodes_[node].next;
        nodes_[node].next = freeHead_;
        freeHead_ = node;
        return w;
    }

  private:
    struct Node
    {
        W w;
        std::uint32_t next = kNil;
    };

    struct Ends
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    std::uint32_t
    allocNode(W &&w)
    {
        if (freeHead_ == kNil) {
            nodes_.push_back(Node{std::move(w), kNil});
            return static_cast<std::uint32_t>(nodes_.size() - 1);
        }
        const std::uint32_t node = freeHead_;
        freeHead_ = nodes_[node].next;
        nodes_[node] = Node{std::move(w), kNil};
        return node;
    }

    FlatMap<Ends> lists_;
    std::vector<Node> nodes_;
    std::uint32_t freeHead_ = kNil;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_FLAT_MAP_HH
