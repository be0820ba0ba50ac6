/**
 * @file
 * Crash-recovery tests: power-cut the host at arbitrary points
 * (including mid-checkpoint), rebuild a fresh engine from the device,
 * and verify no committed update is lost and all content is intact.
 */

#include <gtest/gtest.h>

#include <map>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "test_support.h"
#include "workload/ycsb.h"

namespace checkin {
namespace {

EngineConfig
engineCfg(CheckpointMode mode)
{
    EngineConfig c;
    c.mode = mode;
    c.recordCount = 300;
    c.journalHalfBytes = 2 * kMiB;
    c.checkpointJournalBytes = 512 * kKiB;
    c.checkpointInterval = 0;
    return c;
}

/**
 * Storage node whose host crashes (node.restartHost()): the event
 * queue and the engine die, the device survives, and a fresh engine
 * recovers on the same event queue.
 */
struct CrashRig
{
    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node;
    /** Last version whose commit callback fired, per key. */
    std::map<std::uint64_t, std::uint32_t> committed;

    explicit CrashRig(CheckpointMode m) : node(ctx, stackConfig(engineCfg(m)))
    {
        node.load([](std::uint64_t) { return 256u; });
        for (std::uint64_t k = 0; k < 300; ++k)
            committed[k] = 1;
    }

    KvEngine &engine() { return kvEngine(node); }
    const KvEngine &engine() const { return kvEngine(node); }

    void
    issueUpdates(int n, Rng &rng)
    {
        for (int i = 0; i < n; ++i) {
            const std::uint64_t key = rng.nextBounded(300);
            const auto bytes =
                std::uint32_t(128 * (1 + rng.nextBounded(4)));
            engine().update(key, bytes,
                            [this, key](const QueryResult &) {
                                auto &v = committed[key];
                                const std::uint32_t got =
                                    engine().keymap()[key].version;
                                v = std::max(v, got);
                            });
        }
    }

    /** No committed update may be lost; content must verify. */
    void
    checkDurability() const
    {
        for (const auto &[key, version] : committed) {
            EXPECT_GE(engine().keymap()[key].version, version)
                << "lost committed update for key " << key;
        }
        engine().verifyAllKeys();
    }
};

class RecoveryAllModes
    : public ::testing::TestWithParam<CheckpointMode>
{
};

TEST_P(RecoveryAllModes, CleanJournalReplay)
{
    CrashRig rig(GetParam());
    Rng rng(1);
    rig.issueUpdates(400, rng);
    rig.eq.run(); // everything committed, no checkpoint yet
    const RecoveryInfo info = rig.node.restartHost();
    EXPECT_GT(info.replayedLogs, 0u);
    EXPECT_EQ(info.catalogKeys, 300u);
    rig.checkDurability();
}

TEST_P(RecoveryAllModes, CrashMidWorkloadLosesNoCommit)
{
    CrashRig rig(GetParam());
    Rng rng(2);
    rig.issueUpdates(800, rng);
    // Drain only part of the event queue: some updates committed,
    // some in flight, some still buffered.
    for (int i = 0; i < 200 && rig.eq.step(); ++i) {
    }
    rig.node.restartHost();
    rig.checkDurability();
}

TEST_P(RecoveryAllModes, CrashDuringCheckpoint)
{
    CrashRig rig(GetParam());
    Rng rng(3);
    rig.issueUpdates(500, rng);
    rig.eq.run();
    rig.engine().requestCheckpoint();
    // More traffic while the checkpoint runs, then cut power while
    // both the checkpoint and the new updates are in flight.
    rig.issueUpdates(200, rng);
    for (int i = 0; i < 50 && rig.eq.step(); ++i) {
    }
    rig.node.restartHost();
    rig.checkDurability();
}

TEST_P(RecoveryAllModes, CrashAfterCheckpointBeforeMoreUpdates)
{
    CrashRig rig(GetParam());
    Rng rng(4);
    rig.issueUpdates(300, rng);
    rig.eq.run();
    rig.engine().requestCheckpoint();
    rig.eq.run();
    const RecoveryInfo info = rig.node.restartHost();
    // Everything was checkpointed: no logs to replay.
    EXPECT_EQ(info.replayedLogs, 0u);
    rig.checkDurability();
}

TEST_P(RecoveryAllModes, RecoveredStoreKeepsServing)
{
    CrashRig rig(GetParam());
    Rng rng(5);
    rig.issueUpdates(400, rng);
    for (int i = 0; i < 300 && rig.eq.step(); ++i) {
    }
    rig.node.restartHost();
    // The recovered store must accept and persist new work.
    rig.issueUpdates(200, rng);
    rig.eq.run();
    rig.engine().requestCheckpoint();
    rig.eq.run();
    rig.checkDurability();
    EXPECT_EQ(rig.engine().verifyAllKeys(), 300u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RecoveryAllModes,
    ::testing::Values(CheckpointMode::Baseline, CheckpointMode::IscA,
                      CheckpointMode::IscB, CheckpointMode::IscC,
                      CheckpointMode::CheckIn),
    [](const ::testing::TestParamInfo<CheckpointMode> &info) {
        switch (info.param) {
          case CheckpointMode::Baseline: return "Baseline";
          case CheckpointMode::IscA: return "IscA";
          case CheckpointMode::IscB: return "IscB";
          case CheckpointMode::IscC: return "IscC";
          case CheckpointMode::CheckIn: return "CheckIn";
        }
        return "Unknown";
    });

/** Property sweep: crash at many different drain depths. */
class CrashPointSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CrashPointSweep, NoCommittedUpdateLost)
{
    CrashRig rig(CheckpointMode::CheckIn);
    Rng rng(std::uint64_t(GetParam()) * 977 + 5);
    rig.issueUpdates(300, rng);
    if (GetParam() % 3 == 1)
        rig.engine().requestCheckpoint();
    rig.issueUpdates(300, rng);
    const int steps = GetParam() * 37;
    for (int i = 0; i < steps && rig.eq.step(); ++i) {
    }
    const RecoveryInfo info = rig.node.restartHost();
    (void)info;
    rig.checkDurability();
}

INSTANTIATE_TEST_SUITE_P(Depths, CrashPointSweep,
                         ::testing::Range(0, 24));

} // namespace
} // namespace checkin
