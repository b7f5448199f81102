/**
 * @file
 * InlineFn / SmallFn: move-only callable wrappers with a generous inline
 * buffer, used as the engine's event-callback type and as the
 * completion type on the memory, translation and network request paths.
 * Unlike std::function, any capture up to kInlineBytes is stored inline
 * regardless of trivial copyability, so steady-state event scheduling
 * and request completion never touch the heap (std::function's
 * small-object optimization only applies to trivially copyable captures
 * of at most two words, which excludes lambdas that capture a pooled
 * pointer or a completion callback).
 *
 * Oversized callables still work — they fall back to a heap allocation
 * and bump a thread-local counter shared by every signature, so the
 * fallback rate is observable in stats (sim.smallFnHeapAllocs).
 */

#ifndef NETCRAFTER_SIM_SMALL_FN_HH
#define NETCRAFTER_SIM_SMALL_FN_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace netcrafter::sim {

namespace detail {

/** Heap-fallback constructions this thread performed (cold-path). */
inline thread_local std::uint64_t smallFnHeapAllocs = 0;

} // namespace detail

template <typename Sig> class InlineFn;

/** Move-only `R(Args...)` callable with a 64-byte inline buffer. */
template <typename R, typename... Args>
class InlineFn<R(Args...)>
{
  public:
    /** Captures up to this size are stored inline (no allocation). */
    static constexpr std::size_t kInlineBytes = 64;

    InlineFn() = default;
    InlineFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    InlineFn(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn &, Args...>,
                      "InlineFn: callable does not match the signature");
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &InlineOps<Fn>::ops;
        } else {
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(f)));
            ops_ = &HeapOps<Fn>::ops;
            ++detail::smallFnHeapAllocs;
        }
    }

    InlineFn(InlineFn &&other) noexcept { moveFrom(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /** Invoke the stored callable. Requires a non-empty InlineFn. */
    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    /** True when a callable is stored. */
    explicit operator bool() const { return ops_ != nullptr; }

    friend bool
    operator==(const InlineFn &fn, std::nullptr_t)
    {
        return fn.ops_ == nullptr;
    }

    /** Destroy the stored callable (no-op when empty). */
    void
    reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** Lifetime count of this thread's heap-fallback constructions,
     *  over every InlineFn signature. */
    static std::uint64_t
    heapAllocations()
    {
        return detail::smallFnHeapAllocs;
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    struct InlineOps
    {
        static Fn *
        at(void *p)
        {
            return std::launder(reinterpret_cast<Fn *>(p));
        }
        static R
        invoke(void *p, Args &&...args)
        {
            return (*at(p))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *dst, void *src)
        {
            ::new (dst) Fn(std::move(*at(src)));
            at(src)->~Fn();
        }
        static void destroy(void *p) { at(p)->~Fn(); }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    template <typename Fn>
    struct HeapOps
    {
        static Fn *&
        slot(void *p)
        {
            return *std::launder(reinterpret_cast<Fn **>(p));
        }
        static R
        invoke(void *p, Args &&...args)
        {
            return (*slot(p))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *dst, void *src)
        {
            ::new (dst) Fn *(slot(src));
        }
        static void destroy(void *p) { delete slot(p); }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    void
    moveFrom(InlineFn &other) noexcept
    {
        if (other.ops_ != nullptr) {
            ops_ = other.ops_;
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

/** Move-only `void()` callable: the engine's one-shot callback type. */
using SmallFn = InlineFn<void()>;

/** Callback type executed when a one-shot event fires. */
using EventFn = SmallFn;

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_SMALL_FN_HH
