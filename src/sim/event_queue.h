/**
 * @file
 * Minimal discrete-event simulation kernel.
 *
 * Events are arbitrary callbacks scheduled at absolute ticks. Ties are
 * broken by insertion order so the simulation is fully deterministic.
 *
 * Internally the queue is a two-tier calendar queue tuned for the
 * near-monotonic schedule pattern of this simulator (most events land
 * within a few NAND page latencies of now()):
 *
 *  - an *active window* of kBucketTicks ticks whose events sit in one
 *    sorted vector and dispatch by bumping an index;
 *  - a wheel of kBucketCount fixed-width buckets covering the near
 *    future, appended to in O(1) and sorted only when the window
 *    reaches them;
 *  - a binary min-heap for the far future (checkpoint timers, erase
 *    completions) that drains into the wheel as the window advances.
 *
 * The dispatch order is exactly the (tick, seq) order of the classic
 * binary-heap implementation — the golden determinism test in
 * tests/test_event_queue_golden.cc holds the two bit-for-bit equal —
 * but the common schedule/dispatch pair is O(1) amortized with no
 * per-event allocation (see sim/inline_event.h).
 */

#ifndef CHECKIN_SIM_EVENT_QUEUE_H_
#define CHECKIN_SIM_EVENT_QUEUE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/inline_event.h"
#include "sim/types.h"

namespace checkin {

/**
 * Deterministic discrete-event queue.
 *
 * The queue owns the simulation clock: now() advances only when an
 * event is dispatched. Scheduling in the past is a programming error
 * and is clamped to now() with an assertion in debug builds; clamps
 * are counted (clampedSchedules()) and surfaced in run artifacts so
 * silent model bugs stay visible in release runs.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p cb to run at absolute tick @p when (>= now()). */
    void schedule(Tick when, Callback cb);

    /** Schedule @p cb to run @p delay ticks from now. */
    void
    scheduleAfter(Tick delay, Callback cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    /** True when no events remain. */
    bool
    empty() const
    {
        return pending_ == 0;
    }

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /** Tick of the next pending event; kInvalidTick when empty. */
    Tick nextEventTick() const;

    /**
     * Dispatch the next event, advancing the clock.
     * @retval true an event ran; false when the queue was empty.
     */
    bool step();

    /** Run until the queue drains. Returns dispatched event count. */
    std::uint64_t run();

    /**
     * Run until the queue drains or the clock passes @p limit.
     * Events scheduled at exactly @p limit still run.
     */
    std::uint64_t runUntil(Tick limit);

    /** Total events dispatched since construction. */
    std::uint64_t dispatched() const { return dispatched_; }

    /** Past-tick schedules clamped to now() since construction. */
    std::uint64_t clampedSchedules() const { return clamped_; }

    /**
     * Drop every pending event without running it ("power cut").
     * The clock keeps its current value; crash-recovery tests use
     * this to abandon all in-flight host work.
     */
    void clear();

    /**
     * Post-dispatch sampling hook (obs/telemetry.h): once installed,
     * @p fn(ctx, now()) runs right after the event whose dispatch
     * advanced the clock to the armed tick or beyond. The hook is
     * disarmed before the call and must re-arm itself through
     * setStepHookDue(), so it fires at most once per armed deadline
     * and a hook that stops re-arming costs nothing. When disarmed
     * (the default) a step pays exactly one always-false compare —
     * tests/test_alloc_budget.cc gates that it changes no dispatch or
     * allocation count.
     */
    using StepHookFn = void (*)(void *ctx, Tick now);

    /** Install @p fn as the step hook (disarmed until armed). */
    void
    installStepHook(StepHookFn fn, void *ctx)
    {
        hookFn_ = fn;
        hookCtx_ = ctx;
        hookDue_ = kInvalidTick;
    }

    /** Remove the step hook and disarm it. */
    void
    clearStepHook()
    {
        hookFn_ = nullptr;
        hookCtx_ = nullptr;
        hookDue_ = kInvalidTick;
    }

    /** Arm the hook to fire at the first dispatch at/after @p due. */
    void
    setStepHookDue(Tick due)
    {
        hookDue_ = hookFn_ != nullptr ? due : kInvalidTick;
    }

    /** Armed deadline; kInvalidTick when disarmed. */
    Tick stepHookDue() const { return hookDue_; }

    /** Calendar geometry (exposed for tests and PERF.md tuning). */
    static constexpr Tick kBucketTicks = 1 << 13; // 8.192 us windows
    static constexpr std::size_t kBucketCount = 256; // ~2 ms horizon
    static_assert((kBucketCount & (kBucketCount - 1)) == 0 &&
                      kBucketCount % 64 == 0,
                  "bucket count must be a power of two, whole words");

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    /** Strict-weak "dispatches earlier" order. */
    static bool
    earlier(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** std::*_heap comparator for the far-future min-heap. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return earlier(b, a);
        }
    };

    /** First tick past the active window. */
    Tick
    windowEnd() const
    {
        return windowStart_ + kBucketTicks;
    }

    /** First tick past the wheel's reach. */
    Tick
    wheelLimit() const
    {
        return windowStart_ + kBucketTicks * kBucketCount;
    }

    /** Wheel bucket holding tick @p when. */
    static std::size_t
    bucketOf(Tick when)
    {
        return std::size_t(when / kBucketTicks) % kBucketCount;
    }

    /**
     * Window-distance (in buckets, 1..kBucketCount) from @p start to
     * the nearest occupied wheel bucket, walking the occupancy bitmap
     * a word at a time. Pre: wheelCount_ > 0.
     */
    std::size_t nextOccupiedDistance(std::size_t start) const;

    void
    markBucket(std::size_t b)
    {
        wheelBits_[b >> 6] |= std::uint64_t{1} << (b & 63);
    }

    void
    unmarkBucket(std::size_t b)
    {
        wheelBits_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    }

    /** Insert into the (sorted) active window. */
    void insertActive(Event ev);

    /**
     * Advance the window to the next bucket that yields at least one
     * event and load it into active_.
     * @retval false the queue is empty (active_ left drained).
     */
    bool refill();

    // Tier 1: the active window — sorted by (when, seq), consumed by
    // bumping activeIdx_; the consumed prefix is trimmed lazily.
    std::vector<Event> active_;
    std::size_t activeIdx_ = 0;

    // Tier 2a: near-future wheel. Buckets are unsorted append-only
    // vectors; bucketOf() maps several rotations onto one bucket, so
    // refill() only harvests events inside the window it opens.
    std::array<std::vector<Event>, kBucketCount> wheel_;
    std::size_t wheelCount_ = 0;
    /** One bit per bucket: set iff the bucket vector is non-empty. */
    std::array<std::uint64_t, kBucketCount / 64> wheelBits_{};

    // Tier 2b: far-future overflow min-heap (std::*_heap on vector).
    std::vector<Event> overflow_;

    // Step hook (telemetry sampling); disarmed = kInvalidTick, so
    // the common path is one compare that always fails.
    StepHookFn hookFn_ = nullptr;
    void *hookCtx_ = nullptr;
    Tick hookDue_ = kInvalidTick;

    Tick windowStart_ = 0; // aligned to kBucketTicks
    Tick now_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t clamped_ = 0;
};

} // namespace checkin

#endif // CHECKIN_SIM_EVENT_QUEUE_H_
