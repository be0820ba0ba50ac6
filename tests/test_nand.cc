/**
 * @file
 * Tests for the NAND flash program-state + timing model.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "nand/nand_flash.h"

namespace checkin {
namespace {

NandConfig
tinyConfig()
{
    NandConfig c;
    c.channels = 2;
    c.diesPerChannel = 2;
    c.planesPerDie = 1;
    c.blocksPerPlane = 4;
    c.pagesPerBlock = 8;
    c.pageBytes = 4096;
    return c;
}

TEST(NandLayout, FlattenUnflattenRoundTrip)
{
    const NandConfig cfg = tinyConfig();
    NandLayout layout(cfg);
    for (Ppn p = 0; p < cfg.totalPages(); ++p) {
        const PhysAddr a = layout.unflatten(p);
        EXPECT_EQ(layout.flatten(a), p);
        EXPECT_LT(a.channel, cfg.channels);
        EXPECT_LT(a.die, cfg.diesPerChannel);
        EXPECT_LT(a.block, cfg.blocksPerPlane);
        EXPECT_LT(a.page, cfg.pagesPerBlock);
    }
}

TEST(NandLayout, DieAndChannelIndexConsistent)
{
    const NandConfig cfg = tinyConfig();
    NandLayout layout(cfg);
    for (Ppn p = 0; p < cfg.totalPages(); ++p) {
        const PhysAddr a = layout.unflatten(p);
        const std::uint32_t die = layout.dieIndexOf(p);
        EXPECT_EQ(die, a.channel * cfg.diesPerChannel + a.die);
        EXPECT_EQ(layout.channelIndexOf(p), a.channel);
    }
}

TEST(NandConfigTest, GeometryMath)
{
    const NandConfig cfg = tinyConfig();
    EXPECT_EQ(cfg.dieCount(), 4u);
    EXPECT_EQ(cfg.totalBlocks(), 16u);
    EXPECT_EQ(cfg.totalPages(), 128u);
    EXPECT_EQ(cfg.totalBytes(), 128u * 4096u);
}

TEST(NandFlash, ProgramThenReadRoundTrips)
{
    NandFlash nand(tinyConfig());
    const Tick prog = nand.program(0, 0).tick;
    EXPECT_TRUE(nand.isProgrammed(0));
    EXPECT_TRUE(nand.read(0, prog).ok());
}

TEST(NandFlash, InOrderProgrammingEnforced)
{
    NandFlash nand(tinyConfig());
    nand.program(0, 0);
    // Page 2 before page 1 violates the in-order rule.
    EXPECT_THROW(nand.program(2, 0), std::logic_error);
    nand.program(1, 0);
    EXPECT_EQ(nand.nextProgramPage(0), 2u);
}

TEST(NandFlash, RewriteWithoutEraseRejected)
{
    NandFlash nand(tinyConfig());
    nand.program(0, 0);
    EXPECT_THROW(nand.program(0, 0), std::logic_error);
}

TEST(NandFlash, EraseResetsBlock)
{
    NandFlash nand(tinyConfig());
    const NandConfig cfg = tinyConfig();
    for (std::uint32_t p = 0; p < cfg.pagesPerBlock; ++p)
        nand.program(p, 0);
    EXPECT_EQ(nand.nextProgramPage(0), cfg.pagesPerBlock);
    nand.eraseBlock(0, 0);
    EXPECT_EQ(nand.nextProgramPage(0), 0u);
    EXPECT_FALSE(nand.isProgrammed(0));
    EXPECT_EQ(nand.eraseCount(0), 1u);
    // Re-programming after erase works.
    EXPECT_TRUE(nand.program(0, 0).ok());
    EXPECT_TRUE(nand.isProgrammed(0));
}

TEST(NandFlash, TimingReadIsSenseThenTransfer)
{
    const NandConfig cfg = tinyConfig();
    NandFlash nand(cfg);
    nand.program(0, 0);
    const Tick idle = nand.allIdleAt();
    const Tick done = nand.read(0, idle).tick;
    EXPECT_EQ(done, idle + cfg.readLatency + cfg.pageTransferTime());
}

TEST(NandFlash, TimingSameDieSerializes)
{
    const NandConfig cfg = tinyConfig();
    NandFlash nand(cfg);
    nand.program(0, 0);
    nand.program(1, 0);
    const Tick idle = nand.allIdleAt();
    const Tick r1 = nand.read(0, idle).tick;
    const Tick r2 = nand.read(1, idle).tick;
    // Same die: second read waits for the first sense to finish.
    EXPECT_GE(r2, r1);
    EXPECT_GE(r2, idle + 2 * cfg.readLatency);
}

TEST(NandFlash, TimingDifferentDiesOverlap)
{
    const NandConfig cfg = tinyConfig();
    NandFlash nand(cfg);
    // Block 0 is die 0; the last block lives on the last die.
    const Ppn other_die_page =
        (cfg.totalBlocks() - 1) * cfg.pagesPerBlock;
    nand.program(0, 0);
    nand.program(other_die_page, 0);
    const Tick idle = nand.allIdleAt();
    const Tick r1 = nand.read(0, idle).tick;
    const Tick r2 = nand.read(other_die_page, idle).tick;
    // Different die and channel: fully parallel.
    EXPECT_EQ(r1, r2);
}

TEST(NandFlash, StatsCount)
{
    NandFlash nand(tinyConfig());
    nand.program(0, 0);
    nand.read(0, 0);
    nand.read(0, 0);
    const StatRegistry &s = nand.stats();
    EXPECT_EQ(s.get("nand.programs"), 1u);
    EXPECT_EQ(s.get("nand.reads"), 2u);
    EXPECT_EQ(s.get("nand.erases"), 0u);
}

TEST(NandFlash, EraseCountTracking)
{
    NandFlash nand(tinyConfig());
    for (int i = 0; i < 3; ++i)
        nand.eraseBlock(1, 0);
    nand.eraseBlock(2, 0);
    EXPECT_EQ(nand.eraseCount(1), 3u);
    EXPECT_EQ(nand.maxEraseCount(), 3u);
    EXPECT_EQ(nand.totalEraseCount(), 4u);
}

} // namespace
} // namespace checkin
