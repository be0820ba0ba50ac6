/**
 * @file
 * A deterministic storm of self-rescheduling events for measuring an
 * event kernel: bench_kernel times the calendar queue against
 * ReferenceEventQueue with it, and test_alloc_budget.cc checks that a
 * disarmed step hook leaves its dispatch and allocation counts alone.
 *
 * Allocations are read from allocCount(), which alloc_counter.cc
 * defines along with the counting operator new; a binary that
 * includes this header links that file.
 */

#ifndef CHECKIN_TESTS_EVENT_STORM_H_
#define CHECKIN_TESTS_EVENT_STORM_H_

#include <chrono>
#include <cstdint>
#include <cstdio>

#include "sim/rng.h"
#include "sim/types.h"

namespace checkin {

/** Global operator new calls so far (alloc_counter.cc). */
std::uint64_t allocCount();

struct KernelRun
{
    double eventsPerSec = 0.0;
    std::uint64_t dispatched = 0;
    std::uint64_t allocs = 0;
};

/**
 * In-flight event population: roughly the figure-scale experiment's
 * steady state (32 client chains plus per-die NAND completions, GC,
 * journal and checkpoint machinery all pending at once).
 */
inline constexpr std::uint64_t kStormActors = 256;

/**
 * Dispatch @p target self-rescheduling events through @p Queue. A
 * fixed population of actors reschedules itself with the simulator's
 * delay mix (same-tick fan-out, CPU/NAND latencies, far timers); each
 * callback captures 32 bytes — the engine/FTL hot-path shape that
 * overflows std::function's inline buffer but fits InlineCallback's.
 * @p prep runs on the empty queue before the storm starts.
 */
template <typename Queue, typename Prep = void (*)(Queue &)>
KernelRun
driveKernel(
    std::uint64_t target, std::uint64_t seed,
    Prep prep = [](Queue &) {})
{
    Queue q;
    prep(q);
    Rng rng(seed);
    std::uint64_t dispatched = 0;
    std::uint64_t sink = 0;

    struct Rearm
    {
        Queue *q;
        Rng *rng;
        std::uint64_t *dispatched;
        std::uint64_t *sink;
        std::uint64_t target;

        /**
         * Count-weighted delay mix from the simulator: same-tick
         * layer handoffs and ~1-2 us host CPU steps dominate, NAND
         * page ops land 50-600 us out, and erase-class /
         * checkpoint-interval timers are rare.
         */
        Tick
        drawDelay() const
        {
            const std::uint64_t roll = rng->nextBounded(100);
            if (roll < 30)
                return 0;
            if (roll < 55)
                return 500 + rng->nextBounded(2'000);
            if (roll < 90)
                return 50'000 + rng->nextBounded(600'000);
            if (roll < 98)
                return rng->nextBounded(3'000'000);
            return rng->nextBounded(200'000'000);
        }

        void
        operator()() const
        {
            const Tick d = drawDelay();
            const std::uint64_t key = *dispatched;
            const std::uint64_t bytes = key ^ d;
            const std::uint64_t gen = key * 0x9e3779b97f4a7c15ULL;
            auto *self = this;
            q->scheduleAfter(d, [self, key, bytes, gen] {
                ++*self->dispatched;
                *self->sink += key ^ bytes ^ gen;
                if (*self->dispatched + kStormActors <= self->target)
                    (*self)();
            });
        }
    };

    Rearm rearm{&q, &rng, &dispatched, &sink, target};

    const std::uint64_t allocs_before = allocCount();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kStormActors; ++i)
        rearm();
    while (dispatched < target && q.step()) {
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    KernelRun r;
    r.dispatched = dispatched;
    r.allocs = allocCount() - allocs_before;
    r.eventsPerSec = secs > 0 ? double(dispatched) / secs : 0.0;
    if (sink == 0x5eed) // defeat dead-code elimination
        std::printf("%llu\n", (unsigned long long)sink);
    return r;
}

} // namespace checkin

#endif // CHECKIN_TESTS_EVENT_STORM_H_
