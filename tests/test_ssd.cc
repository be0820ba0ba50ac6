/**
 * @file
 * Tests for the SSD front end: command processing, timing, write
 * backpressure, vendor CoW/checkpoint commands, and the ISCE.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "ssd/ssd.h"
#include "test_support.h"

namespace checkin {
namespace {

SectorData
sector(std::uint64_t base)
{
    SectorData d;
    for (std::uint32_t c = 0; c < kChunksPerSector; ++c)
        d.chunks[c] = base * 10 + c + 1;
    return d;
}

std::vector<SectorData>
sectors(std::uint64_t base, std::uint32_t n)
{
    std::vector<SectorData> v;
    for (std::uint32_t i = 0; i < n; ++i)
        v.push_back(sector(base + i));
    return v;
}

class SsdTest : public ::testing::Test
{
  protected:
    SsdTest()
    {
        FtlConfig ftl_cfg;
        ftl_cfg.mappingUnitBytes = 512;
        ssd_ = std::make_unique<Ssd>(ctx_, miniNand(), ftl_cfg,
                                     SsdConfig{});
    }

    SimContext ctx_;
    EventQueue &eq_ = ctx_.events();
    std::unique_ptr<Ssd> ssd_;
};

TEST_F(SsdTest, WriteThenReadCompletesViaEventQueue)
{
    bool write_done = false;
    ssd_->submit(Command::write(0, sectors(1, 8), IoCause::Query),
                 [&](const CmdResult &) { write_done = true; });
    eq_.run();
    ASSERT_TRUE(write_done);

    bool read_done = false;
    Tick read_tick = 0;
    ssd_->submit(Command::read(0, 8),
                 [&](const CmdResult &r) {
                     read_done = true;
                     read_tick = r.require();
                 });
    eq_.run();
    ASSERT_TRUE(read_done);
    EXPECT_GT(read_tick, 0u);

    std::vector<SectorData> out(8);
    ssd_->peek(0, 8, out.data());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], sector(1 + i));
}

TEST_F(SsdTest, ZeroLengthReadAndWriteAreRejected)
{
    // A zero-length range has no last sector. The FTL's range math
    // wraps on it: at lba 0 it walks ~2^61 units, at a unit-aligned
    // nonzero lba it does nothing. Both must be rejected.
    for (const Lba lba : {Lba(0), Lba(8)}) {
        SCOPED_TRACE(lba);
        EXPECT_THROW(ssd_->submitSync(Command::read(lba, 0)),
                     std::invalid_argument);
        EXPECT_THROW(ssd_->submitSync(
                         Command::write(lba, {}, IoCause::Query)),
                     std::invalid_argument);
        EXPECT_THROW(ssd_->submit(Command::read(lba, 0),
                                  [](const CmdResult &) {}),
                     std::invalid_argument);
        EXPECT_THROW(ssd_->submit(Command::write(lba, {}, IoCause::Query),
                                  [](const CmdResult &) {}),
                     std::invalid_argument);
    }
    // Rejected before the device did anything.
    EXPECT_EQ(eq_.pending(), 0u);
    EXPECT_EQ(ssd_->stats().get("ssd.cmd.read"), 0u);
    EXPECT_EQ(ssd_->stats().get("ssd.cmd.write"), 0u);
}

TEST_F(SsdTest, CompletionsAreOrderedPerResource)
{
    std::vector<int> order;
    ssd_->submit(Command::write(0, sectors(1, 4), IoCause::Query),
                 [&](const CmdResult &) { order.push_back(1); });
    ssd_->submit(Command::write(8, sectors(2, 4), IoCause::Query),
                 [&](const CmdResult &) { order.push_back(2); });
    eq_.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(SsdTest, TrimDiscardsData)
{
    ssd_->submit(Command::write(0, sectors(5, 4), IoCause::Query),
                 [](const CmdResult &) {});
    ssd_->submit(Command::trim(0, 4), [](const CmdResult &) {});
    eq_.run();
    std::vector<SectorData> out(4);
    ssd_->peek(0, 4, out.data());
    for (const SectorData &d : out)
        EXPECT_EQ(d, SectorData{});
}

TEST_F(SsdTest, CowSingleCopiesRecord)
{
    ssd_->submit(Command::write(0, sectors(3, 2), IoCause::Journal),
                 [](const CmdResult &) {});
    // Two full sectors.
    ssd_->submit(Command::cowSingle(CowPair::make(0, 0, 100, 8)),
                 [](const CmdResult &) {});
    eq_.run();
    std::vector<SectorData> out(2);
    ssd_->peek(100, 2, out.data());
    EXPECT_EQ(out[0], sector(3));
    EXPECT_EQ(out[1], sector(4));
    // Copy-only checkpoint: no remaps.
    EXPECT_EQ(ssd_->ftl().stats().get("ftl.remaps"), 0u);
    EXPECT_GT(ssd_->ftl().stats().get("ftl.slotWrites.checkpoint"),
              0u);
}

TEST_F(SsdTest, CowChunkShiftExtractsSubSectorRecord)
{
    // Record of 2 chunks starting at chunk 1 of sector 0.
    auto payload = sectors(9, 1);
    ssd_->submit(Command::write(0, {payload[0]}, IoCause::Journal),
                 [](const CmdResult &) {});
    ssd_->submit(Command::cowSingle(CowPair::make(0, 1, 100, 2)),
                 [](const CmdResult &) {});
    eq_.run();
    std::vector<SectorData> out(1);
    ssd_->peek(100, 1, out.data());
    // Chunks 1..2 of the source land at chunks 0..1 of the target.
    EXPECT_EQ(out[0].chunks[0], payload[0].chunks[1]);
    EXPECT_EQ(out[0].chunks[1], payload[0].chunks[2]);
    EXPECT_EQ(out[0].chunks[2], 0u);
}

TEST_F(SsdTest, CheckpointRemapUsesMappingNotCopies)
{
    ssd_->submit(Command::write(0, sectors(4, 1), IoCause::Journal),
                 [](const CmdResult &) {});
    eq_.run();
    const std::uint64_t writes_before =
        ssd_->ftl().stats().get("ftl.slotWrites");
    // Exactly one 512 B unit.
    ssd_->submit(
        Command::checkpointRemap({CowPair::make(0, 0, 100, 4)}),
        [](const CmdResult &) {});
    eq_.run();
    EXPECT_EQ(ssd_->ftl().stats().get("ftl.remaps"), 1u);
    EXPECT_EQ(ssd_->ftl().stats().get("ftl.slotWrites"),
              writes_before);
    std::vector<SectorData> out(1);
    ssd_->peek(100, 1, out.data());
    EXPECT_EQ(out[0], sector(4));
}

TEST_F(SsdTest, CheckpointRemapFallsBackToCopyWhenUnaligned)
{
    ssd_->submit(Command::write(0, sectors(4, 2), IoCause::Journal),
                 [](const CmdResult &) {});
    eq_.run();
    // Sub-sector start: cannot remap.
    ssd_->submit(
        Command::checkpointRemap({CowPair::make(0, 2, 100, 4)}),
        [](const CmdResult &) {});
    eq_.run();
    EXPECT_EQ(ssd_->ftl().stats().get("ftl.remaps"), 0u);
    EXPECT_GT(ssd_->ftl().stats().get("ftl.slotWrites.checkpoint"),
              0u);
}

TEST_F(SsdTest, ForceCopyOverridesRemapEligibility)
{
    ssd_->submit(Command::write(0, sectors(4, 1), IoCause::Journal),
                 [](const CmdResult &) {});
    eq_.run();
    // forceCopy is the merged-record flag.
    ssd_->submit(Command::checkpointRemap({CowPair::make(
                     0, 0, 100, 4, /*version=*/0,
                     /*force_copy=*/true)}),
                 [](const CmdResult &) {});
    eq_.run();
    EXPECT_EQ(ssd_->ftl().stats().get("ftl.remaps"), 0u);
}

TEST_F(SsdTest, DeleteLogsTrimsAndCountsDeallocation)
{
    ssd_->submit(Command::write(0, sectors(1, 8), IoCause::Journal),
                 [](const CmdResult &) {});
    ssd_->submit(Command::deleteLogs(0, 8),
                 [](const CmdResult &) {});
    eq_.run();
    std::vector<SectorData> out(8);
    ssd_->peek(0, 8, out.data());
    for (const SectorData &d : out)
        EXPECT_EQ(d, SectorData{});
    EXPECT_GE(ssd_->stats().get("isce.logDeletions"), 1u);
}

TEST_F(SsdTest, ReadLatencyExceedsFlashRead)
{
    // Disable the DRAM data cache so the read must touch flash.
    FtlConfig ftl_cfg;
    ftl_cfg.dataCacheBytes = 0;
    SimContext ctx;
    EventQueue &eq = ctx.events();
    Ssd ssd(ctx, miniNand(), ftl_cfg, SsdConfig{});
    ssd.submit(Command::write(0, sectors(1, 1), IoCause::Query),
               [](const CmdResult &) {});
    eq.run();
    // Force the open page out so the read touches flash.
    ssd.ftl().flushOpenPages(eq.now());
    eq.schedule(ssd.quiesceTick(), [] {});
    eq.run();
    const Tick start = eq.now();
    Tick done = 0;
    ssd.submit(Command::read(0, 1), [&](const CmdResult &r) { done = r.require(); });
    eq.run();
    EXPECT_GE(done - start, miniNand().readLatency);
}

TEST_F(SsdTest, DataCacheServesRecentWrites)
{
    ssd_->submit(Command::write(0, sectors(1, 8), IoCause::Query),
                 [](const CmdResult &) {});
    eq_.run();
    ssd_->ftl().flushOpenPages(eq_.now());
    const std::uint64_t flash_reads =
        ssd_->nand().stats().get("nand.reads");
    ssd_->submit(Command::read(0, 8), [](const CmdResult &) {});
    eq_.run();
    // Served from the device DRAM cache: no flash read happened.
    EXPECT_EQ(ssd_->nand().stats().get("nand.reads"), flash_reads);
    EXPECT_GT(ssd_->ftl().stats().get("ftl.cacheHits"), 0u);
}

TEST_F(SsdTest, WriteBackpressureKicksInUnderBurst)
{
    // Saturate far beyond the write buffer: many full-page writes.
    SsdConfig cfg;
    cfg.writeBufferPages = 4;
    FtlConfig ftl_cfg;
    SimContext ctx;
    EventQueue &eq = ctx.events();
    Ssd ssd(ctx, miniNand(), ftl_cfg, cfg);
    Tick last = 0;
    for (int i = 0; i < 64; ++i) {
        ssd.submit(Command::write(Lba(i) * 8, sectors(i, 8),
                                  IoCause::Query),
                   [&](const CmdResult &r) {
                       last = std::max(last, r.require());
                   });
    }
    eq.run();
    // With only 4 buffer pages, the later acks must wait for program
    // drains: total time approaches the flash program rate.
    EXPECT_GT(ssd.stats().get("ssd.writeStalls"), 0u);
    EXPECT_GT(last, miniNand().programLatency);
}

TEST_F(SsdTest, CommandStatsTracked)
{
    ssd_->submit(Command::read(0, 1), [](const CmdResult &) {});
    ssd_->submit(Command::write(0, sectors(1, 1), IoCause::Query),
                 [](const CmdResult &) {});
    ssd_->submit(Command::trim(0, 1), [](const CmdResult &) {});
    eq_.run();
    EXPECT_EQ(ssd_->stats().get("ssd.cmd.read"), 1u);
    EXPECT_EQ(ssd_->stats().get("ssd.cmd.write"), 1u);
    EXPECT_EQ(ssd_->stats().get("ssd.cmd.trim"), 1u);
}

} // namespace
} // namespace checkin
