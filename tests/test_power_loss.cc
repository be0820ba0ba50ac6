/**
 * @file
 * Device-level power-loss rebuild tests (paper §III-G): the FTL
 * reconstructs its RAM mapping structures from the OOB area —
 * including checkpoint remaps, which were never physically
 * rewritten — and the engine then recovers on top.
 */

#include <gtest/gtest.h>

#include <map>

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

// ---------------------------------------------------------------------
// Full-stack: SPOR + firmware rebuild + engine recovery
// ---------------------------------------------------------------------

class PowerLossStack
    : public ::testing::TestWithParam<CheckpointMode>
{
  protected:
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
};

TEST_P(PowerLossStack, NoCommittedUpdateLostThroughFirmwareRebuild)
{
    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node(ctx, stackConfig(engineCfg()));
    node.load([](std::uint64_t) { return 384u; });

    Rng rng(5);
    std::map<std::uint64_t, std::uint32_t> committed;
    for (int i = 0; i < 600; ++i) {
        const std::uint64_t key = rng.nextBounded(300);
        node.engine().update(
            key, std::uint32_t(128 * (1 + rng.nextBounded(4))),
            [&committed, key, &node](const QueryResult &) {
                committed[key] = kvEngine(node).keymap()[key].version;
            });
        if (i == 300)
            node.engine().requestCheckpoint();
    }
    eq.run();

    // Host crash + device power loss with SPOR + firmware rebuild.
    const PowerCutReport report = node.powerCut();
    EXPECT_GT(report.rebuild.slotsRecovered, 0u);
    for (const auto &[key, version] : committed) {
        EXPECT_GE(kvEngine(node).keymap()[key].version, version)
            << "lost key " << key;
    }
    node.engine().verifyAllKeys();
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

} // namespace
} // namespace checkin
