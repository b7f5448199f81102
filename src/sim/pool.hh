/**
 * @file
 * Thread-local object pools with intrusive, non-atomic reference counts.
 *
 * Packets and flits are the simulator's highest-churn allocations: every
 * memory access materialises a packet plus a handful of flits that die
 * within a few thousand cycles. PooledPtr<T> replaces shared_ptr for
 * these objects: the reference count lives inside the object (no control
 * block), counting is plain integer arithmetic (no atomics — at most
 * one thread touches a pooled object at a time: a shard's window runs
 * on exactly one executor thread per round and the quantum barrier
 * orders rounds, see sharded_engine.hh), and a dead object returns to
 * the releasing thread's free list instead of the heap. Steady state
 * performs zero allocations: the pool grows to its high-water mark and
 * recycles from there. Slabs whose allocating thread exits retire into
 * a process-lifetime vault (see ~ObjectPool) so migrated nodes stay
 * valid.
 *
 * A pooled type T must
 *  - derive publicly from PoolRefCount,
 *  - be default-constructible, and
 *  - provide resetForReuse() restoring the default-constructed state
 *    (keeping any container capacity it wants to recycle).
 */

#ifndef NETCRAFTER_SIM_POOL_HH
#define NETCRAFTER_SIM_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace netcrafter::sim {

template <typename T> class ObjectPool;
template <typename T> class PooledPtr;

/**
 * Intrusive reference count base. Copying a pooled object copies its
 * payload, never its identity as a pool node, so the count stays put.
 */
class PoolRefCount
{
  public:
    PoolRefCount() = default;
    PoolRefCount(const PoolRefCount &) {}
    PoolRefCount &operator=(const PoolRefCount &) { return *this; }

  private:
    template <typename> friend class ObjectPool;
    template <typename> friend class PooledPtr;

    std::uint32_t poolRefs_ = 0;
};

/**
 * Slab-backed free list of T nodes. Access through local(): each thread
 * owns one pool per type, matching the one-system-per-thread execution
 * model of the parallel experiment scheduler.
 */
template <typename T>
class ObjectPool
{
  public:
    /** Nodes allocated per slab; slabs live for the whole process. */
    static constexpr std::size_t kSlabSize = 256;

    /** The calling thread's pool for T. */
    static ObjectPool &
    local()
    {
        thread_local ObjectPool pool;
        return pool;
    }

    ObjectPool() = default;
    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    /**
     * Retire this pool's slabs into a process-lifetime vault instead of
     * freeing them. A node is released to the *releasing* thread's free
     * list, so a node released on a thread other than the one that
     * carved it migrates between per-thread free lists — and a node
     * parked on thread A's
     * free list (or still live inside a long-lived packet) must stay
     * valid after thread B, whose pool carved the slab, exits. The
     * vault is intentionally immortal: slabs retire at worker-thread
     * exit and stay resident until process teardown, which bounds the
     * cost at the high-water footprint of every exited thread.
     */
    ~ObjectPool()
    {
        // Free nodes keep container capacity for their next use (see
        // resetForReuse()); nothing reuses them after this pool dies, so
        // hand that storage back instead of parking it in the vault.
        for (T *obj : free_)
            *obj = T{};
        if (slabs_.empty())
            return;
        std::lock_guard<std::mutex> lock(vaultMutex());
        auto &retired = *vaultSlabs();
        for (auto &slab : slabs_)
            retired.push_back(std::move(slab));
    }

    /** Slabs retired process-wide by exited threads (diagnostics). */
    static std::size_t
    retiredSlabs()
    {
        std::lock_guard<std::mutex> lock(vaultMutex());
        return vaultSlabs()->size();
    }

    /** Acquire a node in its default-constructed state, refcount 1. */
    PooledPtr<T>
    allocate()
    {
        if (free_.empty())
            grow();
        T *obj = free_.back();
        free_.pop_back();
        // Nodes released on this thread but carved by another thread's
        // pool land on this free list too, so the free list can exceed
        // this pool's own arena — clamp instead of underflowing. The
        // high-water mark tracks net local liveness: a diagnostic of
        // this pool's footprint, not a global census.
        const std::size_t live =
            allocated_ > free_.size() ? allocated_ - free_.size() : 0;
        if (live > highWater_)
            highWater_ = live;
        return PooledPtr<T>(obj);
    }

    /** Nodes ever allocated (arena size in nodes). */
    std::size_t allocated() const { return allocated_; }

    /** Nodes currently free for reuse. */
    std::size_t freeCount() const { return free_.size(); }

    /** Peak simultaneously live nodes. */
    std::size_t highWater() const { return highWater_; }

    /** Approximate arena footprint (excludes per-node heap members). */
    std::size_t arenaBytes() const { return allocated_ * sizeof(T); }

  private:
    friend class PooledPtr<T>;

    void
    grow()
    {
        auto slab = std::make_unique<T[]>(kSlabSize);
        free_.reserve(free_.size() + kSlabSize);
        for (std::size_t i = kSlabSize; i-- > 0;)
            free_.push_back(&slab[i]);
        slabs_.push_back(std::move(slab));
        allocated_ += kSlabSize;
    }

    void
    release(T *obj)
    {
        // Reset before recycling: dropping nested PooledPtr members may
        // re-enter release() for other nodes, which is safe because the
        // free-list push happens after the reset completes.
        obj->resetForReuse();
        free_.push_back(obj);
    }

    static std::mutex &
    vaultMutex()
    {
        static std::mutex m;
        return m;
    }

    /**
     * Leaked singleton: the vault must outlive every thread_local pool,
     * including the main thread's (whose destructor runs during static
     * teardown), so it is never destroyed. Still reachable through this
     * pointer, so leak checkers stay quiet.
     */
    static std::vector<std::unique_ptr<T[]>> *
    vaultSlabs()
    {
        static auto *retired = new std::vector<std::unique_ptr<T[]>>();
        return retired;
    }

    std::vector<std::unique_ptr<T[]>> slabs_;
    std::vector<T *> free_;
    std::size_t allocated_ = 0;
    std::size_t highWater_ = 0;
};

/**
 * Shared-ownership handle to a pooled object. Drop-in for the subset of
 * shared_ptr the simulator uses: copy/move, get(), *, ->, bool,
 * (in)equality. When the last handle drops, the object is reset and
 * returned to the releasing thread's pool.
 */
template <typename T>
class PooledPtr
{
  public:
    PooledPtr() = default;
    PooledPtr(std::nullptr_t) {}

    PooledPtr(const PooledPtr &other) : obj_(other.obj_)
    {
        if (obj_)
            ++obj_->poolRefs_;
    }

    PooledPtr(PooledPtr &&other) noexcept : obj_(other.obj_)
    {
        other.obj_ = nullptr;
    }

    PooledPtr &
    operator=(const PooledPtr &other)
    {
        if (this != &other) {
            T *old = obj_;
            obj_ = other.obj_;
            if (obj_)
                ++obj_->poolRefs_;
            unref(old);
        }
        return *this;
    }

    PooledPtr &
    operator=(PooledPtr &&other) noexcept
    {
        if (this != &other) {
            T *old = obj_;
            obj_ = other.obj_;
            other.obj_ = nullptr;
            unref(old);
        }
        return *this;
    }

    PooledPtr &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    ~PooledPtr() { unref(obj_); }

    /** Drop this handle's reference. */
    void
    reset()
    {
        T *old = obj_;
        obj_ = nullptr;
        unref(old);
    }

    T *get() const { return obj_; }
    T &operator*() const { return *obj_; }
    T *operator->() const { return obj_; }
    explicit operator bool() const { return obj_ != nullptr; }

    friend bool
    operator==(const PooledPtr &a, const PooledPtr &b)
    {
        return a.obj_ == b.obj_;
    }
    friend bool
    operator!=(const PooledPtr &a, const PooledPtr &b)
    {
        return a.obj_ != b.obj_;
    }
    friend bool
    operator==(const PooledPtr &a, std::nullptr_t)
    {
        return a.obj_ == nullptr;
    }
    friend bool
    operator!=(const PooledPtr &a, std::nullptr_t)
    {
        return a.obj_ != nullptr;
    }

  private:
    friend class ObjectPool<T>;

    explicit PooledPtr(T *obj) : obj_(obj) { obj_->poolRefs_ = 1; }

    static void
    unref(T *obj)
    {
        if (obj != nullptr && --obj->poolRefs_ == 0)
            ObjectPool<T>::local().release(obj);
    }

    T *obj_ = nullptr;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_POOL_HH
