/**
 * @file
 * Tests for DELETE (tombstones) and SCAN operations: journal
 * semantics, checkpoint-time slot trims, catalog deletions,
 * crash recovery of tombstones, and scan coalescing.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "test_support.h"
#include "workload/client.h"

namespace checkin {
namespace {

EngineConfig
engineCfg(CheckpointMode mode)
{
    EngineConfig c;
    c.mode = mode;
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

    explicit Stack(CheckpointMode m = CheckpointMode::CheckIn)
        : node(ctx, stackConfig(engineCfg(m)))
    {
        node.load([](std::uint64_t) { return 256u; });
    }

    KvEngine &engine() { return kvEngine(node); }
};

TEST(Delete, GetAfterDeleteMisses)
{
    Stack s;
    bool done = false;
    s.engine().erase(7, [&](const QueryResult &r) {
        EXPECT_TRUE(r.found);
        done = true;
    });
    s.eq.run();
    ASSERT_TRUE(done);
    bool got = true;
    s.engine().get(7, [&](const QueryResult &r) { got = r.found; });
    s.eq.run();
    EXPECT_FALSE(got);
    EXPECT_EQ(s.engine().stats().get("engine.deletes"), 1u);
    s.engine().verifyAllKeys();
}

TEST(Delete, CheckpointTrimsSlotAndRecordsCatalogDeletion)
{
    Stack s;
    s.engine().erase(7, [](const QueryResult &) {});
    s.eq.run();
    s.engine().requestCheckpoint();
    s.eq.run();
    EXPECT_FALSE(s.engine().keymap()[7].inJournal);
    EXPECT_EQ(s.engine().keymap()[7].catalogChunks, 0u);
    EXPECT_GE(s.engine().stats().get("engine.ckptTombstoneTrims"),
              1u);
    // The data-area slot is gone.
    std::vector<SectorData> buf(1);
    s.node.ssd().peek(s.engine().layout().targetLba(7), 1, buf.data());
    EXPECT_EQ(buf[0], SectorData{});
    s.engine().verifyAllKeys();
}

TEST(Delete, UpdateAfterDeleteRevives)
{
    Stack s;
    s.engine().erase(9, [](const QueryResult &) {});
    s.engine().update(9, 384, [](const QueryResult &) {});
    s.eq.run();
    bool got = false;
    s.engine().get(9, [&](const QueryResult &r) { got = r.found; });
    s.eq.run();
    EXPECT_TRUE(got);
    s.engine().requestCheckpoint();
    s.eq.run();
    got = false;
    s.engine().get(9, [&](const QueryResult &r) { got = r.found; });
    s.eq.run();
    EXPECT_TRUE(got);
    s.engine().verifyAllKeys();
}

TEST(Delete, DeleteAfterUpdateInSameGroupWins)
{
    Stack s;
    s.engine().update(5, 256, [](const QueryResult &) {});
    s.engine().erase(5, [](const QueryResult &) {});
    s.eq.run();
    bool got = true;
    s.engine().get(5, [&](const QueryResult &r) { got = r.found; });
    s.eq.run();
    EXPECT_FALSE(got);
    s.engine().requestCheckpoint();
    s.eq.run();
    got = true;
    s.engine().get(5, [&](const QueryResult &r) { got = r.found; });
    s.eq.run();
    EXPECT_FALSE(got);
}

class DeleteRecovery : public ::testing::TestWithParam<bool>
{
};

TEST_P(DeleteRecovery, TombstonesSurviveCrash)
{
    const bool checkpoint_before_crash = GetParam();
    Stack s;
    for (std::uint64_t k = 10; k < 20; ++k)
        s.engine().erase(k, [](const QueryResult &) {});
    s.engine().update(15, 512, [](const QueryResult &) {});
    s.eq.run();
    if (checkpoint_before_crash) {
        s.engine().requestCheckpoint();
        s.eq.run();
    }
    // Crash + recover.
    s.node.restartHost();
    for (std::uint64_t k = 10; k < 20; ++k) {
        bool got = true;
        s.engine().get(k, [&](const QueryResult &r) {
            got = r.found;
        });
        s.eq.run();
        EXPECT_EQ(got, k == 15) << "key " << k;
    }
    s.engine().verifyAllKeys();
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, DeleteRecovery,
                         ::testing::Bool());

TEST(Scan, ReadsLiveRangeAndCountsKeys)
{
    Stack s;
    std::uint32_t scanned = 0;
    bool found = false;
    s.engine().scan(100, 20, [&](const QueryResult &r) {
        scanned = r.scanned;
        found = r.found;
    });
    s.eq.run();
    EXPECT_TRUE(found);
    EXPECT_EQ(scanned, 20u);
    EXPECT_EQ(s.engine().stats().get("engine.scans"), 1u);
    EXPECT_GT(s.engine().stats().get("engine.scanSequentialSectors"),
              0u);
}

TEST(Scan, SkipsDeletedKeys)
{
    Stack s;
    s.engine().erase(105, [](const QueryResult &) {});
    s.engine().erase(106, [](const QueryResult &) {});
    s.eq.run();
    std::uint32_t scanned = 0;
    s.engine().scan(100, 10, [&](const QueryResult &r) {
        scanned = r.scanned;
    });
    s.eq.run();
    EXPECT_EQ(scanned, 8u);
}

TEST(Scan, MixesJournalAndDataAreaResidents)
{
    Stack s;
    s.engine().update(102, 384, [](const QueryResult &) {});
    s.engine().update(104, 384, [](const QueryResult &) {});
    s.eq.run();
    ASSERT_TRUE(s.engine().keymap()[102].inJournal);
    std::uint32_t scanned = 0;
    s.engine().scan(100, 8, [&](const QueryResult &r) {
        scanned = r.scanned;
    });
    s.eq.run();
    EXPECT_EQ(scanned, 8u);
}

TEST(Scan, ClampedAtKeySpaceEnd)
{
    Stack s;
    std::uint32_t scanned = 0;
    s.engine().scan(295, 50, [&](const QueryResult &r) {
        scanned = r.scanned;
    });
    s.eq.run();
    EXPECT_EQ(scanned, 5u);
}

TEST(Scan, EmptyRangeCompletes)
{
    Stack s;
    for (std::uint64_t k = 200; k < 210; ++k)
        s.engine().erase(k, [](const QueryResult &) {});
    s.eq.run();
    bool completed = false;
    bool found = true;
    s.engine().scan(200, 10, [&](const QueryResult &r) {
        completed = true;
        found = r.found;
    });
    s.eq.run();
    EXPECT_TRUE(completed);
    EXPECT_FALSE(found);
}

TEST(WorkloadE, RunsEndToEnd)
{
    Stack s;
    WorkloadSpec spec = WorkloadSpec::e();
    spec.operationCount = 500;
    spec.maxScanLength = 16;
    ClientPool pool(s.ctx, s.engine(), spec, TrafficSpec{}, 8);
    pool.start();
    while (!pool.done()) {
        ASSERT_TRUE(s.eq.step()) << "deadlock";
    }
    EXPECT_EQ(pool.stats().opsCompleted, 500u);
    s.engine().verifyAllKeys();
}

TEST(WorkloadD, LatestDistributionRuns)
{
    Stack s;
    WorkloadSpec spec = WorkloadSpec::d();
    spec.operationCount = 500;
    ClientPool pool(s.ctx, s.engine(), spec, TrafficSpec{}, 8);
    pool.start();
    while (!pool.done()) {
        ASSERT_TRUE(s.eq.step()) << "deadlock";
    }
    EXPECT_EQ(pool.stats().opsCompleted, 500u);
}

} // namespace
} // namespace checkin
