/**
 * @file
 * Tests for static wear leveling and NVMe queue-depth admission.
 */

#include <gtest/gtest.h>

#include <memory>

#include "ftl/ftl.h"
#include "nand/nand_flash.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "ssd/ssd.h"
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

TEST(WearLevel, ColdBlocksGetRelocated)
{
    NandFlash nand(miniNand());
    FtlConfig cfg;
    cfg.exportedRatio = 0.7;
    cfg.gcLowWaterBlocks = 3;
    cfg.gcHighWaterBlocks = 5;
    cfg.wearLevelThreshold = 8;
    Ftl ftl(nand, cfg);

    // Cold data: written once, never touched again.
    std::uint64_t tag = 0;
    for (Lpn lpn = 0; lpn < 128; ++lpn) {
        const SectorData d = sectorFor(++tag);
        ftl.writeSectors(lpn, 1, &d, IoCause::Query, 0);
    }
    // Hot churn on a different range drives wear up.
    std::vector<std::uint64_t> hot_tag(16, 0);
    Rng rng(1);
    for (int i = 0; i < 30'000; ++i) {
        const Lpn lpn = 200 + rng.nextBounded(16);
        const std::uint64_t t = ++tag;
        hot_tag[lpn - 200] = t;
        const SectorData d = sectorFor(t);
        ftl.writeSectors(lpn, 1, &d, IoCause::Query, 0);
        if (i % 512 == 0)
            ftl.runBackgroundGc(0);
    }
    EXPECT_GT(ftl.stats().get("wl.migrations"), 0u);
    ftl.checkInvariants();
    // All content (cold and hot) must survive the relocations.
    for (Lpn lpn = 0; lpn < 128; ++lpn) {
        SectorData got;
        ftl.peekSectors(lpn, 1, &got);
        ASSERT_EQ(got, sectorFor(lpn + 1)) << "cold lpn " << lpn;
    }
    for (Lpn lpn = 0; lpn < 16; ++lpn) {
        SectorData got;
        ftl.peekSectors(200 + lpn, 1, &got);
        ASSERT_EQ(got, sectorFor(hot_tag[lpn])) << "hot lpn " << lpn;
    }
}

TEST(WearLevel, DisabledWhenThresholdZero)
{
    NandFlash nand(miniNand());
    FtlConfig cfg;
    cfg.exportedRatio = 0.7;
    cfg.wearLevelThreshold = 0;
    Ftl ftl(nand, cfg);
    std::uint64_t tag = 0;
    for (int i = 0; i < 20'000; ++i) {
        const SectorData d = sectorFor(++tag);
        ftl.writeSectors(i % 16, 1, &d, IoCause::Query, 0);
        if (i % 512 == 0)
            ftl.runBackgroundGc(0);
    }
    EXPECT_EQ(ftl.stats().get("wl.migrations"), 0u);
}

TEST(QueueDepth, AdmissionStallsBeyondDepth)
{
    SsdConfig scfg;
    scfg.queueDepth = 4;
    FtlConfig fcfg;
    fcfg.dataCacheBytes = 0; // make reads slow (flash-bound)
    SimContext ctx;
    EventQueue &eq = ctx.events();
    Ssd ssd(ctx, miniNand(), fcfg, scfg);
    // Populate then flush so reads touch flash.
    std::vector<SectorData> payload(8);
    for (int i = 0; i < 8; ++i)
        payload[i] = sectorFor(std::uint64_t(i));
    ssd.submit(Command::write(0, payload, IoCause::Query),
               [](const CmdResult &) {});
    eq.run();
    ssd.ftl().flushOpenPages(eq.now());
    eq.schedule(ssd.quiesceTick(), [] {});
    eq.run();
    // A burst of 64 reads against depth 4 must stall admissions.
    for (int i = 0; i < 64; ++i)
        ssd.submit(Command::read(Lba(i % 8), 1), [](const CmdResult &) {});
    eq.run();
    EXPECT_GT(ssd.stats().get("ssd.queueFullStalls"), 0u);
}

TEST(QueueDepth, DeepQueueDoesNotStallLightLoad)
{
    SsdConfig scfg;
    scfg.queueDepth = 256;
    FtlConfig fcfg;
    SimContext ctx;
    EventQueue &eq = ctx.events();
    Ssd ssd(ctx, miniNand(), fcfg, scfg);
    for (int i = 0; i < 32; ++i) {
        ssd.submit(Command::write(Lba(i), {sectorFor(1)},
                                  IoCause::Query),
                   [](const CmdResult &) {});
        eq.run();
    }
    EXPECT_EQ(ssd.stats().get("ssd.queueFullStalls"), 0u);
}

} // namespace
} // namespace checkin
