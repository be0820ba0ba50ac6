/**
 * @file
 * Golden determinism test for the calendar-queue kernel.
 *
 * The calendar queue replaced a binary-heap EventQueue whose
 * (tick, seq) dispatch order is the simulator's determinism contract.
 * ReferenceEventQueue (reference_event_queue.h) *is* that original
 * implementation (std::priority_queue + std::function); the tests
 * drive both queues through randomized schedule/clear/runUntil
 * interleavings and assert the dispatch sequences digest bit-for-bit
 * equal.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "reference_event_queue.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace checkin {
namespace {

/** FNV-1a over the (tick, payload) dispatch stream. */
class DispatchDigest
{
  public:
    void
    record(Tick when, std::uint64_t payload)
    {
        mix(when);
        mix(payload);
        ++count_;
    }

    std::uint64_t value() const { return hash_; }
    std::uint64_t count() const { return count_; }

  private:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
    std::uint64_t count_ = 0;
};

/**
 * Drive @p q through a deterministic pseudo-random script of
 * schedule / reschedule-from-callback / runUntil / clear steps and
 * digest the dispatch sequence. The script depends only on @p seed
 * (and each queue's clock, which must itself agree), so two correct
 * queues produce identical digests.
 */
template <typename Queue>
DispatchDigest
runScript(Queue &q, std::uint64_t seed)
{
    DispatchDigest digest;
    Rng rng(seed);
    std::uint64_t payload = 0;

    // Delay mix mirroring the simulator: mostly near-future (CPU and
    // NAND page latencies), occasional far-future timers, and some
    // same-tick fan-out.
    auto draw_delay = [&rng]() -> Tick {
        switch (rng.nextBounded(10)) {
          case 0: return 0;
          case 1: return rng.nextBounded(8);
          case 2:
          case 3: return rng.nextBounded(2'000);
          case 4:
          case 5:
          case 6: return 50'000 + rng.nextBounded(600'000);
          case 7:
          case 8: return rng.nextBounded(3'000'000);
          default: return rng.nextBounded(250'000'000);
        }
    };

    // Callbacks re-schedule children to exercise in-dispatch inserts
    // landing in the active window, the wheel, and the overflow tier.
    std::function<void(std::uint64_t, std::uint32_t)> fire =
        [&](std::uint64_t id, std::uint32_t children) {
            digest.record(q.now(), id);
            for (std::uint32_t c = 0; c < children; ++c) {
                const Tick d = draw_delay();
                const std::uint64_t child = ++payload;
                const auto grandchildren =
                    std::uint32_t(rng.nextBounded(2));
                q.scheduleAfter(d, [&fire, child, grandchildren] {
                    fire(child, grandchildren);
                });
            }
        };

    for (int round = 0; round < 40; ++round) {
        const std::uint64_t burst = 1 + rng.nextBounded(60);
        for (std::uint64_t i = 0; i < burst; ++i) {
            const std::uint64_t id = ++payload;
            const auto children = std::uint32_t(rng.nextBounded(3));
            q.schedule(q.now() + draw_delay(),
                       [&fire, id, children] { fire(id, children); });
        }
        switch (rng.nextBounded(6)) {
          case 0:
            // Power cut: drop the backlog mid-flight.
            q.runUntil(q.now() + draw_delay());
            q.clear();
            break;
          case 1:
            q.run();
            break;
          default:
            q.runUntil(q.now() + draw_delay());
            break;
        }
        digest.record(q.now(), q.nextEventTick());
    }
    q.run();
    digest.record(q.now(), 0xdeadbeef);
    return digest;
}

TEST(EventQueueGolden, MatchesReferenceHeapBitForBit)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        EventQueue calendar;
        ReferenceEventQueue reference;
        const DispatchDigest a = runScript(calendar, seed);
        const DispatchDigest b = runScript(reference, seed);
        EXPECT_EQ(a.count(), b.count()) << "seed " << seed;
        EXPECT_EQ(a.value(), b.value()) << "seed " << seed;
        EXPECT_EQ(calendar.now(), reference.now())
            << "seed " << seed;
    }
}

TEST(EventQueueGolden, DispatchedAndPendingStayConsistent)
{
    EventQueue eq;
    Rng rng(7);
    std::uint64_t scheduled = 0;
    for (int i = 0; i < 1000; ++i) {
        eq.schedule(rng.nextBounded(5'000'000), [] {});
        ++scheduled;
    }
    EXPECT_EQ(eq.pending(), scheduled);
    eq.runUntil(2'500'000);
    EXPECT_EQ(eq.pending() + eq.dispatched(), scheduled);
    eq.run();
    EXPECT_EQ(eq.dispatched(), scheduled);
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace checkin
