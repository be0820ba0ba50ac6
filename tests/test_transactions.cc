/**
 * @file
 * Tests for multi-key transactions (atomic group commit) and the
 * TimeSeries aggregator.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "sim/timeseries.h"
#include "test_support.h"

namespace checkin {
namespace {

EngineConfig
engineCfg()
{
    EngineConfig c;
    c.mode = CheckpointMode::CheckIn;
    c.recordCount = 300;
    c.journalHalfBytes = 2 * kMiB;
    c.checkpointJournalBytes = kMiB;
    c.checkpointInterval = 0;
    return c;
}

struct Stack
{
    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node;

    Stack() : node(ctx, stackConfig(engineCfg()))
    {
        node.load([](std::uint64_t) { return 256u; });
    }

    KvEngine &engine() { return kvEngine(node); }
};

TEST(Transactions, BatchCommitsAllKeys)
{
    Stack s;
    bool done = false;
    s.engine().updateBatch({{1, 256}, {2, 384}, {3, 0}, {4, 512}},
                           [&](const QueryResult &r) {
                               EXPECT_TRUE(r.found);
                               done = true;
                           });
    s.eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(s.engine().keymap()[1].version, 2u);
    EXPECT_EQ(s.engine().keymap()[2].version, 2u);
    EXPECT_EQ(s.engine().keymap()[3].storedChunks, 0u); // deleted
    EXPECT_EQ(s.engine().keymap()[4].version, 2u);
    EXPECT_EQ(s.engine().stats().get("engine.transactions"), 1u);
    EXPECT_EQ(s.engine().stats().get("engine.batchCommits"), 1u);
    s.engine().verifyAllKeys();
}

TEST(Transactions, AtomicAcrossCrash)
{
    // Crash at every event-drain depth: after recovery, each
    // transaction must be fully present or fully absent.
    for (int steps = 0; steps < 40; steps += 3) {
        Stack s;
        // Three transactions over disjoint key groups.
        for (int t = 0; t < 3; ++t) {
            std::vector<KvEngine::BatchOp> ops;
            for (std::uint64_t k = 0; k < 5; ++k)
                ops.push_back({std::uint64_t(t) * 10 + k, 256});
            s.engine().updateBatch(std::move(ops),
                                   [](const QueryResult &) {});
        }
        for (int i = 0; i < steps && s.eq.step(); ++i) {
        }
        s.node.restartHost();
        for (int t = 0; t < 3; ++t) {
            const std::uint32_t v0 =
                s.engine().keymap()[std::uint64_t(t) * 10].version;
            for (std::uint64_t k = 1; k < 5; ++k) {
                EXPECT_EQ(
                    s.engine().keymap()[std::uint64_t(t) * 10 + k]
                        .version,
                    v0)
                    << "txn " << t << " split at steps=" << steps;
            }
        }
        s.engine().verifyAllKeys();
    }
}

TEST(Transactions, NeverSplitAcrossGroupBoundary)
{
    Stack s;
    // Fill the buffer close to the group bound (256), then append a
    // batch that would straddle it.
    for (int i = 0; i < 250; ++i)
        s.engine().update(std::uint64_t(i % 300), 128,
                          [](const QueryResult &) {});
    std::vector<KvEngine::BatchOp> ops;
    for (std::uint64_t k = 0; k < 20; ++k)
        ops.push_back({k, 128});
    bool done = false;
    s.engine().updateBatch(std::move(ops),
                           [&](const QueryResult &) { done = true; });
    s.eq.run();
    EXPECT_TRUE(done);
    s.engine().verifyAllKeys();
}

TEST(Transactions, OversizedBatchRejected)
{
    Stack s;
    std::vector<KvEngine::BatchOp> ops;
    for (std::uint64_t k = 0; k < 300; ++k)
        ops.push_back({k, 128});
    s.engine().updateBatch(std::move(ops), [](const QueryResult &) {});
    EXPECT_THROW(s.eq.run(), std::invalid_argument);
}

TEST(TimeSeries, BucketsMeansAndMax)
{
    TimeSeries ts(100);
    ts.record(10, 5);
    ts.record(50, 15);
    ts.record(250, 40);
    ASSERT_GE(ts.buckets().size(), 3u);
    EXPECT_EQ(ts.buckets()[0].count, 2u);
    EXPECT_DOUBLE_EQ(ts.buckets()[0].mean(), 10.0);
    EXPECT_EQ(ts.buckets()[0].max, 15u);
    EXPECT_EQ(ts.buckets()[1].count, 0u);
    EXPECT_EQ(ts.buckets()[2].count, 1u);
}

TEST(TimeSeries, ActiveRange)
{
    TimeSeries ts(10);
    EXPECT_EQ(ts.activeRange(), (std::pair<std::size_t,
                                           std::size_t>{0, 0}));
    ts.record(35, 1);
    ts.record(95, 1);
    EXPECT_EQ(ts.activeRange(),
              (std::pair<std::size_t, std::size_t>{3, 9}));
}

} // namespace
} // namespace checkin
