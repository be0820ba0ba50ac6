/**
 * @file
 * Engine-level tests: query semantics, checkpoint triggers, locked
 * mode, and content verification plumbing.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "test_support.h"

namespace checkin {
namespace {

EngineConfig
engineCfg(CheckpointMode mode, Tick interval, bool lock)
{
    EngineConfig c;
    c.mode = mode;
    c.recordCount = 300;
    c.journalHalfBytes = 2 * kMiB;
    c.checkpointJournalBytes = 256 * kKiB;
    c.checkpointInterval = interval;
    c.lockQueriesDuringCheckpoint = lock;
    return c;
}

struct Stack
{
    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node;

    explicit Stack(CheckpointMode mode = CheckpointMode::CheckIn,
                   Tick interval = 0, bool lock = false)
        : node(ctx, stackConfig(engineCfg(mode, interval, lock)))
    {
        node.load([](std::uint64_t) { return 256u; });
    }

    KvEngine &engine() { return kvEngine(node); }
};

TEST(KvEngine, GetReturnsLoadedValue)
{
    Stack s;
    bool done = false;
    s.engine().get(5, [&](const QueryResult &r) {
        EXPECT_TRUE(r.found);
        done = true;
    });
    s.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(s.engine().stats().get("engine.gets"), 1u);
}

TEST(KvEngine, UpdateBumpsVersionAndServesFromJournal)
{
    Stack s;
    s.engine().update(5, 384, [](const QueryResult &) {});
    s.eq.run();
    EXPECT_EQ(s.engine().keymap()[5].version, 2u);
    EXPECT_TRUE(s.engine().keymap()[5].inJournal);
    bool got = false;
    s.engine().get(5, [&](const QueryResult &r) {
        EXPECT_TRUE(r.found);
        got = true;
    });
    s.eq.run();
    EXPECT_TRUE(got);
    EXPECT_EQ(s.engine().stats().get("engine.getsFromJournal"), 1u);
}

TEST(KvEngine, ReadModifyWriteDoesBoth)
{
    Stack s;
    bool done = false;
    s.engine().readModifyWrite(9, 256, [&](const QueryResult &r) {
        EXPECT_TRUE(r.found);
        done = true;
    });
    s.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(s.engine().stats().get("engine.gets"), 1u);
    EXPECT_EQ(s.engine().stats().get("engine.updates"), 1u);
    EXPECT_EQ(s.engine().keymap()[9].version, 2u);
}

TEST(KvEngine, LatencyIncludesHostCpuAndDevice)
{
    Stack s;
    const Tick start = s.eq.now();
    Tick done = 0;
    s.engine().get(1, [&](const QueryResult &r) { done = r.done; });
    s.eq.run();
    EXPECT_GE(done - start, s.engine().config().hostCpuPerQuery);
}

TEST(KvEngine, ThresholdTriggersCheckpoint)
{
    Stack s;
    // 256 KiB threshold at ~512 B per log: ~512 updates suffice.
    for (int i = 0; i < 1500; ++i)
        s.engine().update(std::uint64_t(i % 300), 512,
                          [](const QueryResult &) {});
    s.eq.run();
    EXPECT_GE(s.engine().checkpointDurations().size(), 1u);
    EXPECT_EQ(s.engine().stats().get("engine.checkpoints"),
              s.engine().checkpointDurations().size());
    s.engine().verifyAllKeys();
}

TEST(KvEngine, TimerTriggersCheckpoint)
{
    Stack s(CheckpointMode::CheckIn, 5 * kMsec);
    s.engine().start();
    for (int i = 0; i < 50; ++i)
        s.engine().update(std::uint64_t(i), 512,
                          [](const QueryResult &) {});
    // Run past a few timer periods, then stop driving.
    s.eq.runUntil(s.eq.now() + 50 * kMsec);
    EXPECT_GE(s.engine().checkpointDurations().size(), 1u);
}

TEST(KvEngine, LockedModeDefersQueriesDuringCheckpoint)
{
    Stack s(CheckpointMode::Baseline, 0, /*lock=*/true);
    for (int i = 0; i < 200; ++i)
        s.engine().update(std::uint64_t(i), 512,
                          [](const QueryResult &) {});
    s.eq.run();
    s.engine().requestCheckpoint();
    ASSERT_TRUE(s.engine().checkpointInProgress());
    bool got = false;
    Tick got_at = 0;
    s.engine().get(3, [&](const QueryResult &r) {
        got = true;
        got_at = r.done;
    });
    // The GET is deferred until the checkpoint finishes.
    s.eq.run();
    EXPECT_TRUE(got);
    EXPECT_FALSE(s.engine().checkpointInProgress());
    ASSERT_EQ(s.engine().checkpointDurations().size(), 1u);
    s.engine().verifyAllKeys();
}

TEST(KvEngine, DuringCheckpointFlagTagsQueries)
{
    Stack s(CheckpointMode::Baseline);
    for (int i = 0; i < 300; ++i)
        s.engine().update(std::uint64_t(i), 512,
                          [](const QueryResult &) {});
    s.eq.run();
    s.engine().requestCheckpoint();
    ASSERT_TRUE(s.engine().checkpointInProgress());
    bool tagged = false;
    s.engine().get(3, [&](const QueryResult &r) {
        tagged = r.duringCheckpoint;
    });
    s.eq.run();
    EXPECT_TRUE(tagged);
}

TEST(KvEngine, VerifyAllKeysCountsLoadedKeys)
{
    Stack s;
    EXPECT_EQ(s.engine().verifyAllKeys(), 300u);
}

TEST(KvEngine, ManyInterleavedOpsStayConsistent)
{
    Stack s;
    Rng rng(4);
    int completions = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t key = rng.nextBounded(300);
        if (rng.nextDouble() < 0.5) {
            s.engine().get(key,
                           [&](const QueryResult &) { ++completions; });
        } else {
            const auto bytes =
                std::uint32_t(128 + rng.nextBounded(512 - 128));
            s.engine().update(key, bytes, [&](const QueryResult &) {
                ++completions;
            });
        }
        if (i % 500 == 499)
            s.engine().requestCheckpoint();
    }
    s.eq.run();
    EXPECT_EQ(completions, n);
    s.engine().verifyAllKeys();
}

} // namespace
} // namespace checkin
