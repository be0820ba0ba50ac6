/**
 * @file
 * Device-level power-loss rebuild tests (paper §III-G): the FTL
 * reconstructs its RAM mapping structures from the OOB area —
 * including checkpoint remaps, which were never physically
 * rewritten — and the engine then recovers on top.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "ftl/ftl.h"
#include "nand/nand_flash.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "test_support.h"

namespace checkin {
namespace {

SectorData
sectorFor(std::uint64_t tag)
{
    SectorData d;
    for (std::uint32_t c = 0; c < kChunksPerSector; ++c)
        d.chunks[c] = mix64(tag * 4 + c + 1);
    return d;
}

// ---------------------------------------------------------------------
// FTL-level rebuild
// ---------------------------------------------------------------------

TEST(PowerLossFtl, RestoresWriteOriginMappings)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    for (Lpn lpn = 0; lpn < 64; ++lpn) {
        const SectorData d = sectorFor(lpn + 1);
        ftl.writeSectors(lpn, 1, &d, IoCause::Query, 0, lpn + 1);
    }
    ftl.flushOpenPages(0);
    const auto report = ftl.rebuildFromPowerLoss();
    EXPECT_GE(report.slotsRecovered, 64u);
    ftl.checkInvariants();
    for (Lpn lpn = 0; lpn < 64; ++lpn) {
        SectorData got;
        ftl.peekSectors(lpn, 1, &got);
        EXPECT_EQ(got, sectorFor(lpn + 1)) << "lpn " << lpn;
    }
}

TEST(PowerLossFtl, NewestVersionOfAnLpnWins)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    const SectorData v1 = sectorFor(1);
    const SectorData v2 = sectorFor(2);
    ftl.writeSectors(5, 1, &v1, IoCause::Query, 0, 1);
    ftl.writeSectors(5, 1, &v2, IoCause::Query, 0, 2);
    ftl.flushOpenPages(0);
    ftl.rebuildFromPowerLoss();
    SectorData got;
    ftl.peekSectors(5, 1, &got);
    EXPECT_EQ(got, v2);
}

TEST(PowerLossFtl, RemapRecoveredViaOobTargetAnnotation)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    // Journal write annotated with its checkpoint target (LPN 40).
    const SectorData d = sectorFor(9);
    OobEntry ann;
    ann.version = 7;
    ann.targetLpn = 40;
    ftl.writeSectors(0, 1, &d, IoCause::Journal, 0, 7, &ann);
    // The checkpoint remap itself is a pure RAM update.
    ftl.remapUnit(0, 40, 0);
    ftl.flushOpenPages(0);

    ftl.rebuildFromPowerLoss();
    ftl.checkInvariants();
    SectorData got;
    ftl.peekSectors(40, 1, &got);
    EXPECT_EQ(got, d) << "remapped data lost by rebuild";
}

TEST(PowerLossFtl, RemapSurvivesEvenAfterJournalTrim)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    const SectorData d = sectorFor(11);
    OobEntry ann;
    ann.version = 3;
    ann.targetLpn = 50;
    ftl.writeSectors(0, 1, &d, IoCause::Journal, 0, 3, &ann);
    ftl.remapUnit(0, 50, 0);
    ftl.trimSectors(0, 1); // journal log deleted after checkpoint
    ftl.flushOpenPages(0);

    ftl.rebuildFromPowerLoss();
    SectorData got;
    ftl.peekSectors(50, 1, &got);
    EXPECT_EQ(got, d);
}

TEST(PowerLossFtl, NewerDirectWriteBeatsStaleAnnotation)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    const SectorData journal_v3 = sectorFor(3);
    const SectorData direct_v5 = sectorFor(5);
    OobEntry ann;
    ann.version = 3;
    ann.targetLpn = 60;
    ftl.writeSectors(0, 1, &journal_v3, IoCause::Journal, 0, 3,
                     &ann);
    ftl.remapUnit(0, 60, 0);
    // A later (higher-version) direct write of the target.
    ftl.writeSectors(60, 1, &direct_v5, IoCause::Checkpoint, 0, 5);
    ftl.flushOpenPages(0);

    ftl.rebuildFromPowerLoss();
    SectorData got;
    ftl.peekSectors(60, 1, &got);
    EXPECT_EQ(got, direct_v5);
}

TEST(PowerLossFtl, RebuildKeepsDeviceOperable)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    cfg.exportedRatio = 0.7;
    Ftl ftl(nand, cfg);
    Rng rng(2);
    for (int i = 0; i < 5000; ++i) {
        const SectorData d = sectorFor(std::uint64_t(i) + 100);
        ftl.writeSectors(rng.nextBounded(256), 1, &d, IoCause::Query,
                         0, std::uint64_t(i) + 1);
    }
    ftl.flushOpenPages(0);
    ftl.rebuildFromPowerLoss();
    ftl.checkInvariants();
    // Keep writing; GC must still function on rebuilt state.
    for (int i = 0; i < 5000; ++i) {
        const SectorData d = sectorFor(std::uint64_t(i) + 9000);
        ftl.writeSectors(rng.nextBounded(256), 1, &d, IoCause::Query,
                         0, std::uint64_t(i) + 6000);
    }
    ftl.checkInvariants();
}

TEST(PowerLossFtl, UnflushedOpenPageIsLost)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    const SectorData v1 = sectorFor(1);
    const SectorData v2 = sectorFor(2);
    ftl.writeSectors(5, 1, &v1, IoCause::Query, 0, 1);
    ftl.flushOpenPages(0);
    // v2 sits in an open page that no capacitor flush programs.
    ftl.writeSectors(5, 1, &v2, IoCause::Query, 0, 2);
    ftl.rebuildFromPowerLoss();
    ftl.checkInvariants();
    SectorData got;
    ftl.peekSectors(5, 1, &got);
    EXPECT_EQ(got, v1);
}

// ---------------------------------------------------------------------
// FTL-level rebuild after media faults
// ---------------------------------------------------------------------

/** Failing program plan: every program fails until @p cap have. */
FaultConfig
programFailures(std::uint64_t cap)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.programFailProb = 1.0;
    fc.maxProgramFails = cap;
    return fc;
}

TEST(PowerLossFtl, ProgramFailBeforeCutLeavesFailedPageEmpty)
{
    FaultPlan plan(programFailures(1), 3);
    NandFlash nand(miniNand());
    nand.setFaultPlan(&plan);
    FtlConfig cfg;
    cfg.mappingUnitBytes = 512;
    Ftl ftl(nand, cfg);
    for (Lpn lpn = 0; lpn < 64; ++lpn) {
        const SectorData d = sectorFor(lpn + 1);
        ftl.writeSectors(lpn, 1, &d, IoCause::Query, 0, lpn + 1);
    }
    ftl.flushOpenPages(0);
    ASSERT_EQ(plan.counters().programFails, 1u);

    // The failed page holds stale copies of rescued slots; the
    // rebuild must replay only the rescued ones.
    ftl.flushOpenPages(0);
    const auto report = ftl.rebuildFromPowerLoss();
    EXPECT_EQ(report.slotsRecovered, 64u);
    ftl.checkInvariants();
    for (Lpn lpn = 0; lpn < 64; ++lpn) {
        SectorData got;
        ftl.peekSectors(lpn, 1, &got);
        EXPECT_EQ(got, sectorFor(lpn + 1)) << "lpn " << lpn;
    }
}

TEST(PowerLossFtl, EraseFailBeforeCutKeepsNewestCopy)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.eraseFailProb = 1.0;
    fc.maxEraseFails = 1;
    FaultPlan plan(fc, 4);
    NandFlash nand(miniNand());
    nand.setFaultPlan(&plan);
    FtlConfig cfg;
    cfg.mappingUnitBytes = 512;
    cfg.gcLowWaterBlocks = 3;
    cfg.gcHighWaterBlocks = 5;
    Ftl ftl(nand, cfg);
    const std::uint64_t lpns = 64;
    std::vector<std::uint64_t> generation(lpns, 0);
    std::uint64_t round = 0;
    for (int iter = 0; iter < 12000; ++iter) {
        const std::uint64_t lpn = iter % lpns;
        generation[lpn] = ++round;
        const SectorData d = sectorFor(round);
        ftl.writeSectors(lpn, 1, &d, IoCause::Query, 0, round);
    }
    ASSERT_EQ(plan.counters().eraseFails, 1u);

    // The retired block keeps stale copies of migrated slots.
    ftl.flushOpenPages(0);
    ftl.rebuildFromPowerLoss();
    ftl.checkInvariants();
    for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
        SectorData got;
        ftl.peekSectors(lpn, 1, &got);
        EXPECT_EQ(got, sectorFor(generation[lpn])) << "lpn " << lpn;
    }
}

TEST(PowerLossFtl, ProgramFailDuringFlushLosesNoSlot)
{
    // A program failure inside the capacitor flush rescues the failed
    // page's slots into fresh GC pages, possibly on dies the flush
    // has already passed. The flush must program those too.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        NandFlash nand(miniNand());
        FtlConfig cfg;
        cfg.mappingUnitBytes = 512;
        cfg.exportedRatio = 0.7;
        cfg.gcBackgroundBlocks = 12;
        Ftl ftl(nand, cfg);
        const std::uint64_t lpns = 1800;
        std::vector<std::uint64_t> tag(lpns, 0);
        Rng rng(seed);
        for (std::uint64_t i = 1; i <= 5000; ++i) {
            const Lpn lpn = rng.nextBounded(lpns);
            tag[lpn] = i;
            const SectorData d = sectorFor(i);
            ftl.writeSectors(lpn, 1, &d, IoCause::Query, 0, i);
        }
        ftl.flushOpenPages(0);
        // Background GC leaves migrated slots in open GC pages.
        ftl.runBackgroundGc(0);

        FaultPlan plan(programFailures(1), seed);
        nand.setFaultPlan(&plan);
        ftl.flushOpenPages(0);
        nand.setFaultPlan(nullptr);
        ASSERT_EQ(plan.counters().programFails, 1u);

        ftl.rebuildFromPowerLoss();
        ftl.checkInvariants();
        std::uint64_t lost = 0;
        for (Lpn lpn = 0; lpn < lpns; ++lpn) {
            SectorData got;
            ftl.peekSectors(lpn, 1, &got);
            lost += got != (tag[lpn] == 0 ? SectorData{}
                                          : sectorFor(tag[lpn]));
        }
        EXPECT_EQ(lost, 0u);
    }
}

// ---------------------------------------------------------------------
// Full-stack: SPOR + firmware rebuild + engine recovery
// ---------------------------------------------------------------------

class PowerLossStack
    : public ::testing::TestWithParam<CheckpointMode>
{
  protected:
    using Versions = std::map<std::uint64_t, std::uint32_t>;

    EngineConfig
    engineCfg() const
    {
        EngineConfig c;
        c.mode = GetParam();
        c.recordCount = 300;
        c.journalHalfBytes = 2 * kMiB;
        c.checkpointJournalBytes = kMiB;
        c.checkpointInterval = 0;
        return c;
    }

    /** Load @p node and run 600 updates with a checkpoint midway on
     *  its queue @p eq; returns the last committed version of each
     *  key updated. */
    static Versions
    loadAndUpdate(StorageNode &node, EventQueue &eq)
    {
        node.load([](std::uint64_t) { return 384u; });
        Rng rng(5);
        Versions committed;
        for (int i = 0; i < 600; ++i) {
            const std::uint64_t key = rng.nextBounded(300);
            node.engine().update(
                key, std::uint32_t(128 * (1 + rng.nextBounded(4))),
                [&committed, key, &node](const QueryResult &) {
                    committed[key] =
                        kvEngine(node).keymap()[key].version;
                });
            if (i == 300)
                node.engine().requestCheckpoint();
        }
        eq.run();
        return committed;
    }

    /** Host crash + device power loss with SPOR + firmware rebuild;
     *  no committed update may be lost. */
    static PowerCutReport
    cutAndVerify(StorageNode &node, const Versions &committed)
    {
        const PowerCutReport report = node.powerCut();
        for (const auto &[key, version] : committed) {
            EXPECT_GE(kvEngine(node).keymap()[key].version, version)
                << "lost key " << key;
        }
        node.engine().verifyAllKeys();
        return report;
    }
};

TEST_P(PowerLossStack, NoCommittedUpdateLostThroughFirmwareRebuild)
{
    SimContext ctx;
    StorageNode node(ctx, stackConfig(engineCfg()));
    const Versions committed = loadAndUpdate(node, ctx.events());
    const PowerCutReport report = cutAndVerify(node, committed);
    EXPECT_GT(report.rebuild.slotsRecovered, 0u);
}

TEST_P(PowerLossStack, ProgramFailsBeforeCutLoseNoAck)
{
    // Under context seed 9 the fault plan fails one of the capacitor
    // flush's programs in the IscC and CheckIn runs.
    SimContext ctx(9);
    ExperimentConfig cfg = stackConfig(engineCfg());
    cfg.faults.enabled = true;
    cfg.faults.programFailProb = 2e-2;
    cfg.faults.maxProgramFails = 4;
    StorageNode node(ctx, cfg);
    const Versions committed = loadAndUpdate(node, ctx.events());
    ASSERT_GE(node.faults().counters().programFails, 1u);

    const PowerCutReport report = cutAndVerify(node, committed);
    // Recorded with a flush that programs every slot a failed flush
    // program rescued; a single sweep over the open pages recovers 2
    // slots fewer in the IscC and CheckIn runs.
    struct Pin
    {
        std::uint64_t slots;
        std::uint64_t remaps;
    };
    const Pin pin = GetParam() == CheckpointMode::Baseline ? Pin{430, 0}
                    : GetParam() == CheckpointMode::IscC   ? Pin{776, 31}
                                                        : Pin{775, 127};
    EXPECT_EQ(report.rebuild.slotsRecovered, pin.slots);
    EXPECT_EQ(report.rebuild.remapsRecovered, pin.remaps);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PowerLossStack,
    ::testing::Values(CheckpointMode::Baseline, CheckpointMode::IscC,
                      CheckpointMode::CheckIn),
    [](const ::testing::TestParamInfo<CheckpointMode> &info) {
        switch (info.param) {
          case CheckpointMode::Baseline: return "Baseline";
          case CheckpointMode::IscC: return "IscC";
          case CheckpointMode::CheckIn: return "CheckIn";
          default: return "Other";
        }
    });

// ---------------------------------------------------------------------
// LSM backend: WAL replay and recovery's synchronous compaction
// ---------------------------------------------------------------------

TEST(PowerLossLsm, ReplayAndRecoveryCompactionArePinned)
{
    // One flush leaves a single L0 run (below kLsmCompactRuns); the
    // updates after it stay in the WAL. After the cut, recovery
    // replays them into a second run, which reaches kLsmCompactRuns
    // and compacts during recovery.
    EngineConfig ec;
    ec.backend = EngineBackend::Lsm;
    ec.recordCount = 300;
    ec.journalHalfBytes = kMiB;
    ec.checkpointJournalBytes = 512 * kKiB;
    ec.checkpointInterval = 0;
    // Several commands per batch in every phase.
    ec.maxPairsPerCommand = 64;
    SimContext ctx;
    StorageNode node(ctx, stackConfig(ec));
    node.load([](std::uint64_t) { return 384u; });
    Rng rng(5);
    std::map<std::uint64_t, std::uint32_t> committed;
    auto updates = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const std::uint64_t key = rng.nextBounded(300);
            const std::uint32_t version =
                node.engine().committedVersion(key) + 1;
            node.engine().update(
                key, std::uint32_t(128 * (1 + rng.nextBounded(8))),
                [&committed, key, version](const QueryResult &) {
                    committed[key] = version;
                });
            ctx.events().run();
        }
    };
    updates(300);
    node.engine().requestCheckpoint();
    ctx.events().run();
    updates(200);
    ASSERT_EQ(node.sinceLoad("engine.compactions"), 0u);

    const PowerCutReport report = node.powerCut();
    for (const auto &[key, version] : committed) {
        EXPECT_GE(node.engine().committedVersion(key), version)
            << "lost key " << key;
    }
    EXPECT_EQ(node.engine().verifyAllKeys(), 300u);
    // Recorded values: they pin the commands recovery sends, their
    // order and their batching, which no other test compares.
    EXPECT_EQ(report.rebuild.slotsRecovered, 1060u);
    EXPECT_EQ(report.rebuild.remapsRecovered, 754u);
    EXPECT_EQ(report.recovery.catalogKeys, 300u);
    EXPECT_EQ(report.recovery.replayedLogs, 150u);
    EXPECT_EQ(report.recovery.duration, Tick(15932780));
    // The flush, the replay and the compaction send 5, 3 and 5
    // batches of at most 64 pairs.
    const std::map<std::string, std::uint64_t> pins = {
        {"engine.compactions", 1},
        {"engine.compactionCowCommands", 5},
        {"engine.compactedRecords", 300},
        {"engine.mergedUnits", 419},
        {"ssd.cmd.checkpointRemap", 13},
        {"ssd.cmd.deleteLogs", 3},
        {"ssd.cmd.trim", 6},
        {"isce.remappedPairs", 300},
        {"isce.copiedPairs", 450},
        {"isce.copiedChunks", 2568},
        {"ftl.trimmedUnits", 2267},
        {"ftl.slotWrites.checkpoint", 642},
        {"nand.programs", 184},
    };
    for (const auto &[name, want] : pins)
        EXPECT_EQ(node.sinceLoad(name), want) << name;
}

} // namespace
} // namespace checkin
