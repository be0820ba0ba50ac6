/**
 * @file
 * Tests for the FTL map-cache model: miss charging, LRU locality,
 * and transparency when the table is resident.
 */

#include <gtest/gtest.h>

#include <memory>

#include "ftl/ftl.h"
#include "nand/nand_flash.h"
#include "test_support.h"

namespace checkin {
namespace {

std::unique_ptr<Ftl>
makeFtl(NandFlash &nand, std::uint64_t map_cache_bytes)
{
    FtlConfig cfg;
    cfg.mapCacheBytes = map_cache_bytes;
    cfg.mapEntriesPerFetch = 64;
    return std::make_unique<Ftl>(nand, cfg);
}

TEST(MapCache, DisabledByDefaultNoMisses)
{
    NandFlash nand(smallNand());
    FtlConfig cfg;
    Ftl ftl(nand, cfg);
    SectorData d;
    for (Lpn u = 0; u < 1000; ++u)
        ftl.writeSectors(u, 1, &d, IoCause::Query, 0);
    EXPECT_EQ(ftl.stats().get("ftl.mapCacheMisses"), 0u);
}

TEST(MapCache, ResidentTableNeverMisses)
{
    NandFlash nand(smallNand());
    // Capacity far beyond the table size: model disables itself.
    auto ftl = makeFtl(nand, 1 * kGiB);
    SectorData d;
    for (Lpn u = 0; u < 1000; ++u)
        ftl->writeSectors(u, 1, &d, IoCause::Query, 0);
    EXPECT_EQ(ftl->stats().get("ftl.mapCacheMisses"), 0u);
}

TEST(MapCache, ThrashingTableMissesAndChargesFlash)
{
    NandFlash nand(smallNand());
    // 64-entry segments x 8 B = 512 B per segment; cap 4 segments.
    auto ftl = makeFtl(nand, 4 * 64 * 8);
    const std::uint64_t aux_before =
        nand.stats().get("nand.auxReads");
    SectorData d;
    // Touch many distant segments.
    for (Lpn u = 0; u < 10'000; u += 64)
        ftl->writeSectors(u, 1, &d, IoCause::Query, 0);
    EXPECT_GT(ftl->stats().get("ftl.mapCacheMisses"), 100u);
    EXPECT_GT(nand.stats().get("nand.auxReads"), aux_before);
}

TEST(MapCache, LocalityHitsAfterFirstTouch)
{
    NandFlash nand(smallNand());
    auto ftl = makeFtl(nand, 4 * 64 * 8);
    SectorData d;
    // Repeatedly hammer one segment: one miss, then hits.
    for (int i = 0; i < 100; ++i)
        ftl->writeSectors(Lpn(i % 32), 1, &d, IoCause::Query, 0);
    EXPECT_EQ(ftl->stats().get("ftl.mapCacheMisses"), 1u);
    EXPECT_GT(ftl->stats().get("ftl.mapCacheHits"), 90u);
}

TEST(MapCache, MissDelaysTheOperation)
{
    NandFlash nand(smallNand());
    auto ftl = makeFtl(nand, 4 * 64 * 8);
    SectorData d;
    ftl->writeSectors(0, 1, &d, IoCause::Query, 0);
    // A read of a far segment must pay at least one flash read
    // before its data access.
    ftl->writeSectors(9000, 1, &d, IoCause::Query, 0);
    ftl->flushOpenPages(0);
    const Tick idle = nand.allIdleAt();
    // Evict segment of LPN 9000 by touching other segments.
    for (Lpn u = 0; u < 64 * 8; u += 64)
        ftl->readSectors(u, 1, IoCause::Query, idle);
    const Tick t = ftl->readSectors(9000, 1, IoCause::Query,
                                    nand.allIdleAt());
    EXPECT_GE(t, idle + smallNand().readLatency);
}

} // namespace
} // namespace checkin
