/**
 * @file
 * Small-buffer-optimized, move-only callable for the DES hot path.
 *
 * Every simulated command completion, checkpoint step, and client op
 * is one scheduled callback, so the callback representation decides
 * whether the kernel touches the allocator per event. std::function
 * only inlines ~16 bytes of captures on mainstream ABIs; the common
 * "this + a key + a bound continuation" lambda is ~40-56 bytes and
 * heap-allocates on every schedule. InlineFunction stores captures up
 * to kInlineBytes directly inside the object, falling back to the
 * heap only for oversized or throwing-move captures (counted, and
 * optionally a compile error — see below).
 *
 * InlineFunction<R(Args...)> is signature-generic so the same storage
 * strategy serves both the event queue (void()) and the SSD command
 * completion path (void(const CmdResult &)). InlineCallback remains
 * the alias used by the kernel.
 *
 * Contract differences from std::function, on purpose:
 *  - move-only (events are scheduled once and dispatched once);
 *  - no target_type/target introspection;
 *  - invoking an empty callable is undefined (asserted in debug).
 *
 * Diagnostics:
 *  - InlineFunction::heapFallbacks() counts heap-constructed
 *    callables process-wide across all signatures (relaxed atomic:
 *    exact under single threads, approximate-but-race-free across
 *    sweep workers).
 *  - Defining CHECKIN_EVENT_INLINE_STRICT turns every heap fallback
 *    into a static_assert naming the offending capture size, for
 *    hunting regressions after kernel or engine changes.
 */

#ifndef CHECKIN_SIM_INLINE_EVENT_H_
#define CHECKIN_SIM_INLINE_EVENT_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace checkin {

namespace detail {

/** Dependent-false helper so static_assert fires per instantiation. */
template <typename T>
struct AlwaysFalse : std::false_type
{
};

/** Process-wide count of callables that spilled to the heap. */
inline std::atomic<std::uint64_t> g_inline_event_heap_fallbacks{0};

} // namespace detail

template <typename Sig>
class InlineFunction; // undefined; only the R(Args...) partial below

/** Move-only callable with inline storage for small captures. */
template <typename R, typename... Args>
class InlineFunction<R(Args...)>
{
  public:
    /**
     * Inline capture capacity. Sized for the repo's largest hot
     * lambda: [this, key, value_bytes, cb] with a std::function
     * continuation is 56 bytes on LP64 (8 + 8 + 8 + 32).
     */
    static constexpr std::size_t kInlineBytes = 56;

    /** Strictest capture alignment the inline buffer supports. */
    static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

    /** True when callable @p F stores inline (no allocation). */
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= kInlineBytes && alignof(F) <= kInlineAlign &&
        std::is_nothrow_move_constructible_v<F>;

    InlineFunction() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, InlineFunction>>>
    InlineFunction(F &&fn) // NOLINT: implicit like std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn &, Args...>,
                      "callable does not match InlineFunction "
                      "signature");
        if constexpr (fitsInline<Fn>) {
            if constexpr (std::is_trivially_copyable_v<Fn> &&
                          sizeof(Fn) < kInlineBytes) {
                // Moves copy the whole buffer (trivialRelocate), so
                // the bytes past the callable must hold a value too.
                std::memset(buf_ + sizeof(Fn), 0,
                            kInlineBytes - sizeof(Fn));
            }
            ::new (storage()) Fn(std::forward<F>(fn));
            ops_ = &kInlineOps<Fn>;
        } else {
#ifdef CHECKIN_EVENT_INLINE_STRICT
            static_assert(
                detail::AlwaysFalse<Fn>::value,
                "callable capture does not fit inline "
                "(see sizeof(Fn) in the instantiation trace); "
                "shrink the capture or raise "
                "InlineFunction::kInlineBytes");
#endif
            // The buffer holds only the pointer; moves copy it whole.
            std::memset(buf_ + sizeof(Fn *), 0,
                        kInlineBytes - sizeof(Fn *));
            ::new (storage()) Fn *(new Fn(std::forward<F>(fn)));
            ops_ = &kHeapOps<Fn>;
            detail::g_inline_event_heap_fallbacks.fetch_add(
                1, std::memory_order_relaxed);
        }
    }

    InlineFunction(InlineFunction &&other) noexcept
        : ops_(other.ops_)
    {
        if (ops_ != nullptr)
            relocateFrom(other);
        other.ops_ = nullptr;
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_ != nullptr)
                relocateFrom(other);
            other.ops_ = nullptr;
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invoke the held callable (must not be empty). */
    R
    operator()(Args... args)
    {
        assert(ops_ != nullptr && "invoking empty InlineFunction");
        return ops_->invoke(storage(), std::forward<Args>(args)...);
    }

    /** Destroy the held callable (if any); leaves *this empty. */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            if (!ops_->noopDestroy)
                ops_->destroy(storage());
            ops_ = nullptr;
        }
    }

    /** True when the held callable lives in the inline buffer. */
    bool
    isInline() const noexcept
    {
        return ops_ != nullptr && ops_->inlineStored;
    }

    /** Process-wide heap-fallback constructions since start. */
    static std::uint64_t
    heapFallbacks() noexcept
    {
        return detail::g_inline_event_heap_fallbacks.load(
            std::memory_order_relaxed);
    }

  private:
    /** Manual vtable: one static instance per erased callable type. */
    struct Ops
    {
        R (*invoke)(void *storage, Args &&...args);
        /** Move-construct dst from src, then destroy src's value. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *storage) noexcept;
        bool inlineStored;
        /**
         * Relocation is a plain buffer copy: trivially copyable
         * inline callables, and every heap callable (the buffer
         * holds only the owning pointer). Lets moves skip the
         * indirect relocate call — events move several times
         * between calendar tiers, so this is hot.
         */
        bool trivialRelocate;
        /** Destruction is a no-op (trivial inline callables). */
        bool noopDestroy;
    };

    template <typename Fn>
    static constexpr Ops kInlineOps = {
        [](void *s, Args &&...args) -> R {
            return (*static_cast<Fn *>(s))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        [](void *s) noexcept { static_cast<Fn *>(s)->~Fn(); },
        true,
        std::is_trivially_copyable_v<Fn>,
        std::is_trivially_destructible_v<Fn>,
    };

    template <typename Fn>
    static constexpr Ops kHeapOps = {
        [](void *s, Args &&...args) -> R {
            return (**static_cast<Fn **>(s))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            ::new (dst) Fn *(*static_cast<Fn **>(src));
        },
        [](void *s) noexcept { delete *static_cast<Fn **>(s); },
        false,
        true,
        false,
    };

    /** Pre: ops_ == other.ops_ != nullptr and other holds a value. */
    void
    relocateFrom(InlineFunction &other) noexcept
    {
        if (ops_->trivialRelocate)
            std::memcpy(buf_, other.buf_, sizeof(buf_));
        else
            ops_->relocate(storage(), other.storage());
    }

    void *storage() noexcept { return buf_; }

    const Ops *ops_ = nullptr;
    alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
};

/** The DES kernel's event callback type. */
using InlineCallback = InlineFunction<void()>;

} // namespace checkin

#endif // CHECKIN_SIM_INLINE_EVENT_H_
