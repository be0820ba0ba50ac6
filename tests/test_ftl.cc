/**
 * @file
 * Tests for the sub-page-mapping FTL: mapping, RMW, CoW remapping,
 * trim, and GC data preservation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "ftl/ftl.h"
#include "nand/nand_flash.h"
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
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        v.push_back(sector(base + i));
    return v;
}

/** Parameterized over the mapping unit (paper Fig 13 axis). */
class FtlUnit : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    FtlUnit() : nand_(miniNand())
    {
        FtlConfig cfg;
        cfg.mappingUnitBytes = GetParam();
        ftl_ = std::make_unique<Ftl>(nand_, cfg);
    }

    NandFlash nand_;
    std::unique_ptr<Ftl> ftl_;
};

TEST_P(FtlUnit, GeometryConsistent)
{
    EXPECT_EQ(ftl_->mappingUnitBytes(), GetParam());
    EXPECT_EQ(ftl_->sectorsPerUnit(), GetParam() / 512);
    EXPECT_EQ(ftl_->slotsPerPage(), 4096u / GetParam());
    EXPECT_EQ(ftl_->logicalSectors(),
              ftl_->logicalUnits() * ftl_->sectorsPerUnit());
    EXPECT_LT(ftl_->logicalUnits() * GetParam(),
              nand_.config().totalBytes());
}

TEST_P(FtlUnit, WritePeekRoundTrip)
{
    const auto data = sectors(1, 16);
    ftl_->writeSectors(0, 16, data.data(), IoCause::Query, 0);
    std::vector<SectorData> out(16);
    ftl_->peekSectors(0, 16, out.data());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], data[i]) << "sector " << i;
}

TEST_P(FtlUnit, UnmappedReadsAsZero)
{
    std::vector<SectorData> out(4);
    ftl_->peekSectors(100, 4, out.data());
    for (const SectorData &d : out)
        EXPECT_EQ(d, SectorData{});
}

TEST_P(FtlUnit, OverwriteReplacesAndInvalidates)
{
    const auto v1 = sectors(1, 8);
    const auto v2 = sectors(100, 8);
    ftl_->writeSectors(0, 8, v1.data(), IoCause::Query, 0);
    const std::uint64_t inv_before =
        ftl_->stats().get("ftl.invalidatedSlots");
    ftl_->writeSectors(0, 8, v2.data(), IoCause::Query, 0);
    std::vector<SectorData> out(8);
    ftl_->peekSectors(0, 8, out.data());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], v2[i]);
    EXPECT_GT(ftl_->stats().get("ftl.invalidatedSlots"), inv_before);
}

TEST_P(FtlUnit, SubUnitWriteMergesViaRmw)
{
    const std::uint32_t spu = ftl_->sectorsPerUnit();
    if (spu == 1)
        GTEST_SKIP() << "512 B units cannot have sub-unit writes";
    const auto base = sectors(1, spu);
    ftl_->writeSectors(0, spu, base.data(), IoCause::Query, 0);
    // Overwrite only the first sector of the unit.
    const auto patch = sectors(500, 1);
    ftl_->writeSectors(0, 1, patch.data(), IoCause::Query, 0);
    std::vector<SectorData> out(spu);
    ftl_->peekSectors(0, spu, out.data());
    EXPECT_EQ(out[0], patch[0]);
    for (std::uint32_t i = 1; i < spu; ++i)
        EXPECT_EQ(out[i], base[i]);
    EXPECT_GE(ftl_->stats().get("ftl.rmwReads"), 1u);
}

TEST_P(FtlUnit, RemapSharesOnePhysicalSlot)
{
    const std::uint32_t spu = ftl_->sectorsPerUnit();
    const auto data = sectors(7, spu);
    ftl_->writeSectors(0, spu, data.data(), IoCause::Journal, 0);
    const std::uint64_t programs_before =
        nand_.stats().get("nand.programs");
    ftl_->remapUnit(0, 10, 0);
    // No flash data movement.
    EXPECT_EQ(nand_.stats().get("nand.programs"), programs_before);
    std::vector<SectorData> out(spu);
    ftl_->peekSectors(10 * spu, spu, out.data());
    for (std::uint32_t i = 0; i < spu; ++i)
        EXPECT_EQ(out[i], data[i]);
    EXPECT_EQ(ftl_->stats().get("ftl.remaps"), 1u);
}

TEST_P(FtlUnit, SharedSlotSurvivesSourceTrim)
{
    const std::uint32_t spu = ftl_->sectorsPerUnit();
    const auto data = sectors(9, spu);
    ftl_->writeSectors(0, spu, data.data(), IoCause::Journal, 0);
    ftl_->remapUnit(0, 10, 0);
    const std::uint64_t inv_before =
        ftl_->stats().get("ftl.invalidatedSlots");
    ftl_->trimSectors(0, spu); // drop the journal reference
    // Slot still valid through the data-area LPN.
    EXPECT_EQ(ftl_->stats().get("ftl.invalidatedSlots"), inv_before);
    std::vector<SectorData> out(spu);
    ftl_->peekSectors(10 * spu, spu, out.data());
    for (std::uint32_t i = 0; i < spu; ++i)
        EXPECT_EQ(out[i], data[i]);
    // Dropping the last reference invalidates.
    ftl_->trimSectors(10 * spu, spu);
    EXPECT_EQ(ftl_->stats().get("ftl.invalidatedSlots"),
              inv_before + 1);
}

TEST_P(FtlUnit, RemapReplacesPreviousDstMapping)
{
    const std::uint32_t spu = ftl_->sectorsPerUnit();
    const auto old_data = sectors(1, spu);
    const auto new_data = sectors(50, spu);
    ftl_->writeSectors(10 * spu, spu, old_data.data(),
                       IoCause::Query, 0);
    ftl_->writeSectors(0, spu, new_data.data(), IoCause::Journal, 0);
    ftl_->remapUnit(0, 10, 0);
    std::vector<SectorData> out(spu);
    ftl_->peekSectors(10 * spu, spu, out.data());
    for (std::uint32_t i = 0; i < spu; ++i)
        EXPECT_EQ(out[i], new_data[i]);
}

TEST_P(FtlUnit, RemapIsIdempotent)
{
    const std::uint32_t spu = ftl_->sectorsPerUnit();
    const auto data = sectors(3, spu);
    ftl_->writeSectors(0, spu, data.data(), IoCause::Journal, 0);
    ftl_->remapUnit(0, 10, 0);
    ftl_->remapUnit(0, 10, 0); // second remap of the same pair
    std::vector<SectorData> out(spu);
    ftl_->peekSectors(10 * spu, spu, out.data());
    EXPECT_EQ(out[0], data[0]);
}

TEST_P(FtlUnit, CopySectorsDuplicatesContent)
{
    const std::uint32_t spu = ftl_->sectorsPerUnit();
    const auto data = sectors(4, spu);
    ftl_->writeSectors(0, spu, data.data(), IoCause::Journal, 0);
    ftl_->copySectors(0, 20 * spu, spu, IoCause::Checkpoint, 0);
    std::vector<SectorData> out(spu);
    ftl_->peekSectors(20 * spu, spu, out.data());
    for (std::uint32_t i = 0; i < spu; ++i)
        EXPECT_EQ(out[i], data[i]);
    // Copies are physical: checkpoint-caused slot writes counted.
    EXPECT_GE(ftl_->stats().get("ftl.slotWrites.checkpoint"), 1u);
    // Source remains intact and independent.
    ftl_->trimSectors(0, spu);
    ftl_->peekSectors(20 * spu, spu, out.data());
    EXPECT_EQ(out[0], data[0]);
}

TEST_P(FtlUnit, TrimOnlyCoversWholeUnits)
{
    const std::uint32_t spu = ftl_->sectorsPerUnit();
    if (spu == 1)
        GTEST_SKIP();
    const auto data = sectors(6, spu);
    ftl_->writeSectors(0, spu, data.data(), IoCause::Query, 0);
    // Trimming half a unit must not unmap it.
    ftl_->trimSectors(0, spu / 2);
    std::vector<SectorData> out(1);
    ftl_->peekSectors(0, 1, out.data());
    EXPECT_EQ(out[0], data[0]);
}

TEST_P(FtlUnit, IsUnitAligned)
{
    const std::uint32_t spu = ftl_->sectorsPerUnit();
    EXPECT_TRUE(ftl_->isUnitAligned(0, spu));
    EXPECT_TRUE(ftl_->isUnitAligned(spu * 3, spu * 2));
    if (spu > 1) {
        EXPECT_FALSE(ftl_->isUnitAligned(1, spu));
        EXPECT_FALSE(ftl_->isUnitAligned(0, spu - 1));
    }
}

TEST_P(FtlUnit, WriteAckIsBufferedReadPaysFlash)
{
    const std::uint32_t spu = ftl_->sectorsPerUnit();
    const auto data = sectors(2, spu);
    const Tick ack =
        ftl_->writeSectors(0, spu, data.data(), IoCause::Query, 0);
    // Ack is immediate (SPOR buffer); flash programs happen behind.
    EXPECT_EQ(ack, 0u);
}

INSTANTIATE_TEST_SUITE_P(MappingUnits, FtlUnit,
                         ::testing::Values(512u, 1024u, 2048u,
                                           4096u));

// ---------------------------------------------------------------------
// GC behaviour (512 B unit fixture)
// ---------------------------------------------------------------------

class FtlGc : public ::testing::Test
{
  protected:
    FtlGc() : nand_(miniNand())
    {
        FtlConfig cfg;
        cfg.mappingUnitBytes = 512;
        cfg.exportedRatio = 0.70;
        cfg.gcLowWaterBlocks = 3;
        cfg.gcHighWaterBlocks = 5;
        ftl_ = std::make_unique<Ftl>(nand_, cfg);
    }

    NandFlash nand_;
    std::unique_ptr<Ftl> ftl_;
};

TEST_F(FtlGc, GcReclaimsAndPreservesContent)
{
    // Hammer a small logical range so most slots turn invalid and GC
    // must run; then verify all live content.
    const std::uint64_t lpns = 64;
    std::vector<std::uint64_t> generation(lpns, 0);
    std::uint64_t round = 0;
    // Enough writes to cycle the device several times over.
    for (int iter = 0; iter < 12000; ++iter) {
        const std::uint64_t lpn = iter % lpns;
        generation[lpn] = ++round;
        const auto data = sectors(round * 100, 1);
        ftl_->writeSectors(lpn, 1, data.data(), IoCause::Query, 0);
    }
    EXPECT_GT(ftl_->stats().get("gc.invocations"), 0u);
    EXPECT_GT(ftl_->stats().get("gc.erases"), 0u);
    for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
        std::vector<SectorData> out(1);
        ftl_->peekSectors(lpn, 1, out.data());
        EXPECT_EQ(out[0], sector(generation[lpn] * 100))
            << "lpn " << lpn;
    }
    // GC must keep the device operable (free blocks available); the
    // exact count depends on where the write burst ended.
    EXPECT_GE(ftl_->freeBlocks(), 2u);
}

TEST_F(FtlGc, GcPreservesSharedSlots)
{
    // Create shared (remapped) slots, then force GC churn elsewhere
    // and check both LPNs still read the shared content.
    const auto data = sectors(42, 1);
    ftl_->writeSectors(0, 1, data.data(), IoCause::Journal, 0);
    ftl_->remapUnit(0, 200, 0);
    for (int iter = 0; iter < 12000; ++iter) {
        const std::uint64_t lpn = 300 + (iter % 64);
        const auto filler = sectors(iter, 1);
        ftl_->writeSectors(lpn, 1, filler.data(), IoCause::Query, 0);
    }
    ASSERT_GT(ftl_->stats().get("gc.invocations"), 0u);
    std::vector<SectorData> out(1);
    ftl_->peekSectors(0, 1, out.data());
    EXPECT_EQ(out[0], data[0]);
    ftl_->peekSectors(200, 1, out.data());
    EXPECT_EQ(out[0], data[0]);
}

TEST_F(FtlGc, BackgroundGcFreesBlocks)
{
    for (int iter = 0; iter < 6000; ++iter) {
        const auto data = sectors(iter, 1);
        ftl_->writeSectors(iter % 64, 1, data.data(), IoCause::Query,
                           0);
    }
    const std::uint32_t before = ftl_->freeBlocks();
    const std::uint32_t reclaimed = ftl_->runBackgroundGc(0);
    if (before < 16) {
        EXPECT_GT(reclaimed, 0u);
    }
    EXPECT_GE(ftl_->freeBlocks(), before);
}

TEST_F(FtlGc, MapFlushProgramsPages)
{
    // Enough mapping updates to cross the flush threshold.
    for (int iter = 0; iter < 1200; ++iter) {
        const auto data = sectors(iter, 1);
        ftl_->writeSectors(iter % 32, 1, data.data(), IoCause::Query,
                           0);
    }
    EXPECT_GT(ftl_->stats().get("ftl.mapFlushes"), 0u);
    EXPECT_GT(ftl_->stats().get("ftl.slotWrites.mapflush"), 0u);
}

} // namespace
} // namespace checkin
