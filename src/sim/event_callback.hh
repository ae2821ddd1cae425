/**
 * @file
 * Small-buffer-optimized, move-only callback type for simulation
 * events.
 *
 * The event loop fires one continuation per simulated iteration, so
 * the callback wrapper is on the hottest path of the whole simulator.
 * std::function keeps only 16 bytes of inline storage on common
 * ABIs, which forces a heap allocation for any closure capturing more
 * than two pointers. EventCallback keeps 48 bytes inline — enough for
 * every closure the simulator schedules — so steady-state event
 * scheduling allocates nothing. Larger or throwing-move callables
 * transparently fall back to the heap.
 */

#ifndef PASCAL_SIM_EVENT_CALLBACK_HH
#define PASCAL_SIM_EVENT_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace pascal
{
namespace sim
{

/**
 * Move-only owning wrapper around any `void()` callable.
 *
 * Callables up to kInlineSize bytes that are nothrow-move-constructible
 * live inline; anything else is heap-allocated. Invoking an empty
 * EventCallback is undefined (the event queue never stores empty
 * callbacks).
 */
class EventCallback
{
  public:
    /** Inline storage budget (bytes). Sized for closures capturing a
     *  this-pointer plus a handful of scalars or a small struct. */
    static constexpr std::size_t kInlineSize = 48;

    EventCallback() noexcept = default;

    /** Wrap any callable invocable as `void()`. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    EventCallback(F&& f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void*>(storage)) Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
            trivial = std::is_trivially_copyable_v<Fn> &&
                      std::is_trivially_destructible_v<Fn>;
        } else {
            ::new (static_cast<void*>(storage))
                Fn*(new Fn(std::forward<F>(f)));
            ops = &heapOps<Fn>;
        }
    }

    EventCallback(EventCallback&& other) noexcept { moveFrom(other); }

    EventCallback&
    operator=(EventCallback&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback&) = delete;
    EventCallback& operator=(const EventCallback&) = delete;

    ~EventCallback() { reset(); }

    /** Invoke the wrapped callable. @pre *this is non-empty. */
    void
    operator()()
    {
        ops->invoke(storage);
    }

    explicit operator bool() const noexcept { return ops != nullptr; }

  private:
    struct Ops
    {
        void (*invoke)(void* src);
        /** Move the callable from @p src storage into @p dst storage
         *  and destroy the source (heap case: just moves the
         *  pointer). */
        void (*relocate)(void* dst, void* src) noexcept;
        void (*destroy)(void* src) noexcept;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineSize &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void* src) { (*static_cast<Fn*>(src))(); },
        [](void* dst, void* src) noexcept {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
        },
        [](void* src) noexcept { static_cast<Fn*>(src)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void* src) { (**static_cast<Fn**>(src))(); },
        [](void* dst, void* src) noexcept {
            *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
        },
        [](void* src) noexcept { delete *static_cast<Fn**>(src); },
    };

    void
    reset() noexcept
    {
        if (ops) {
            if (!trivial)
                ops->destroy(storage);
            ops = nullptr;
        }
    }

    /** @pre *this holds no callable (fresh or just reset). */
    void
    moveFrom(EventCallback& other) noexcept
    {
        ops = other.ops;
        trivial = other.trivial;
        if (ops) {
            // Fast path for the simulator's bread-and-butter closures
            // (pointer + a few scalars): a straight copy instead of an
            // indirect relocate call.
            if (trivial)
                std::memcpy(storage, other.storage, kInlineSize);
            else
                ops->relocate(storage, other.storage);
            other.ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage[kInlineSize];
    const Ops* ops = nullptr;
    bool trivial = false;
};

} // namespace sim
} // namespace pascal

#endif // PASCAL_SIM_EVENT_CALLBACK_HH
