/**
 * @file
 * Tests for the ISCE small-copy write-back buffer (paper §III-E):
 * deferral, elision of superseded entries, aggregated flush,
 * overlay-consistent reads, and invalidation by newer writes.
 */

#include <gtest/gtest.h>

#include <memory>

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

class IsceBuffer : public ::testing::Test
{
  protected:
    IsceBuffer()
    {
        SsdConfig scfg;
        scfg.smallBufferSectors = 8;
        FtlConfig fcfg; // 512 B mapping unit
        ssd_ = std::make_unique<Ssd>(ctx_, miniNand(), fcfg, scfg);
    }

    /** Write one journal sector holding a small (2-chunk) record. */
    void
    writeJournalRecord(Lba src, std::uint64_t base)
    {
        ssd_->submit(Command::write(src, {sector(base)},
                                    IoCause::Journal),
                     [](const CmdResult &) {});
        eq_.run();
    }

    /** Checkpoint a forced-copy (merged) sub-unit record. */
    void
    checkpointSmall(Lba src, Lba dst, std::uint32_t chunks = 2)
    {
        ssd_->submit(Command::checkpointRemap({CowPair::make(
                         src, 0, dst, chunks, /*version=*/0,
                         /*force_copy=*/true)}),
                     [](const CmdResult &) {});
        eq_.run();
    }

    SimContext ctx_;
    EventQueue &eq_ = ctx_.events();
    std::unique_ptr<Ssd> ssd_;
};

TEST_F(IsceBuffer, SmallCopyIsDeferredNotWritten)
{
    writeJournalRecord(0, 5);
    const std::uint64_t writes_before =
        ssd_->ftl().stats().get("ftl.slotWrites.checkpoint");
    checkpointSmall(0, 100);
    EXPECT_EQ(ssd_->ftl().stats().get("ftl.slotWrites.checkpoint"),
              writes_before);
    EXPECT_EQ(ssd_->isce().bufferedSectors(), 1u);
    EXPECT_GE(ssd_->stats().get("isce.bufferedSmallRecords"), 1u);
}

TEST_F(IsceBuffer, PeekSeesBufferedContent)
{
    writeJournalRecord(0, 5);
    checkpointSmall(0, 100);
    SectorData out;
    ssd_->peek(100, 1, &out);
    // Chunks 0..1 of the source record, zero tail.
    EXPECT_EQ(out.chunks[0], sector(5).chunks[0]);
    EXPECT_EQ(out.chunks[1], sector(5).chunks[1]);
    EXPECT_EQ(out.chunks[2], 0u);
}

TEST_F(IsceBuffer, SupersededEntryIsElided)
{
    writeJournalRecord(0, 5);
    checkpointSmall(0, 100);
    writeJournalRecord(8, 9); // newer version of the same key
    checkpointSmall(8, 100);
    EXPECT_EQ(ssd_->isce().bufferedSectors(), 1u);
    EXPECT_GE(ssd_->stats().get("isce.elidedSmallWrites"), 1u);
    SectorData out;
    ssd_->peek(100, 1, &out);
    EXPECT_EQ(out.chunks[0], sector(9).chunks[0]);
}

TEST_F(IsceBuffer, BufferFlushesWhenFull)
{
    // Capacity is 8 sectors; the 8th buffered record triggers an
    // aggregated flush.
    for (std::uint64_t i = 0; i < 8; ++i) {
        writeJournalRecord(Lba(i), 5 + i);
        checkpointSmall(Lba(i), 100 + i * 8);
    }
    EXPECT_EQ(ssd_->isce().bufferedSectors(), 0u);
    EXPECT_GE(ssd_->stats().get("isce.smallBufferFlushes"), 1u);
    EXPECT_GT(ssd_->ftl().stats().get("ftl.slotWrites.checkpoint"),
              0u);
    // Content survives the flush.
    for (std::uint64_t i = 0; i < 8; ++i) {
        SectorData out;
        ssd_->peek(100 + i * 8, 1, &out);
        EXPECT_EQ(out.chunks[0], sector(5 + i).chunks[0]) << i;
    }
}

TEST_F(IsceBuffer, HostWriteInvalidatesBufferedEntry)
{
    writeJournalRecord(0, 5);
    checkpointSmall(0, 100);
    ssd_->submit(Command::write(100, {sector(77)}, IoCause::Query),
                 [](const CmdResult &) {});
    eq_.run();
    EXPECT_EQ(ssd_->isce().bufferedSectors(), 0u);
    SectorData out;
    ssd_->peek(100, 1, &out);
    EXPECT_EQ(out, sector(77));
}

TEST_F(IsceBuffer, TrimInvalidatesBufferedEntry)
{
    writeJournalRecord(0, 5);
    checkpointSmall(0, 100);
    ssd_->submit(Command::trim(100, 1), [](const CmdResult &) {});
    eq_.run();
    EXPECT_EQ(ssd_->isce().bufferedSectors(), 0u);
    SectorData out;
    ssd_->peek(100, 1, &out);
    EXPECT_EQ(out, SectorData{});
}

TEST_F(IsceBuffer, RemapSupersedesBufferedEntry)
{
    writeJournalRecord(0, 5);
    checkpointSmall(0, 100);
    // Now a FULL (whole-unit) newer version remaps onto the target.
    writeJournalRecord(8, 9);
    ssd_->submit(
        Command::checkpointRemap({CowPair::make(8, 0, 100, 4)}),
        [](const CmdResult &) {});
    eq_.run();
    EXPECT_EQ(ssd_->isce().bufferedSectors(), 0u);
    SectorData out;
    ssd_->peek(100, 1, &out);
    EXPECT_EQ(out, sector(9));
}

TEST_F(IsceBuffer, SurvivesJournalSourceDeletion)
{
    // The buffer gathers content at checkpoint time, so deleting the
    // journal logs afterwards must not lose the data (SPOR DRAM).
    writeJournalRecord(0, 5);
    checkpointSmall(0, 100);
    ssd_->submit(Command::deleteLogs(0, 8),
                 [](const CmdResult &) {});
    eq_.run();
    SectorData out;
    ssd_->peek(100, 1, &out);
    EXPECT_EQ(out.chunks[0], sector(5).chunks[0]);
}

TEST_F(IsceBuffer, ForcedFlushDrainsEverything)
{
    writeJournalRecord(0, 5);
    checkpointSmall(0, 100);
    writeJournalRecord(8, 6);
    checkpointSmall(8, 108);
    ssd_->isce().flushSmallBuffer(eq_.now());
    EXPECT_EQ(ssd_->isce().bufferedSectors(), 0u);
    SectorData out;
    ssd_->peek(100, 1, &out);
    EXPECT_EQ(out.chunks[0], sector(5).chunks[0]);
    ssd_->peek(108, 1, &out);
    EXPECT_EQ(out.chunks[0], sector(6).chunks[0]);
}

TEST_F(IsceBuffer, DisabledBufferCopiesImmediately)
{
    SsdConfig scfg;
    scfg.smallBufferSectors = 0;
    FtlConfig fcfg;
    SimContext ctx;
    EventQueue &eq = ctx.events();
    Ssd ssd(ctx, miniNand(), fcfg, scfg);
    ssd.submit(Command::write(0, {sector(5)}, IoCause::Journal),
               [](const CmdResult &) {});
    ssd.submit(Command::checkpointRemap({CowPair::make(
                   0, 0, 100, 2, /*version=*/0, /*force_copy=*/true)}),
               [](const CmdResult &) {});
    eq.run();
    EXPECT_EQ(ssd.isce().bufferedSectors(), 0u);
    EXPECT_GT(ssd.ftl().stats().get("ftl.slotWrites.checkpoint"),
              0u);
}

} // namespace
} // namespace checkin
