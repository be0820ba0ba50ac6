/**
 * @file
 * Command factory-builder tests: every builder must round-trip its
 * fields, CowPair::make must match aggregate layout, CmdResult must
 * gate on status, and Ssd::Completion must stay inline (no heap
 * allocation per submission).
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "ssd/command.h"
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

TEST(CommandBuilders, ReadRoundTrip)
{
    const Command c = Command::read(42, 8, IoCause::Checkpoint);
    EXPECT_EQ(c.type, CmdType::Read);
    EXPECT_EQ(c.cause, IoCause::Checkpoint);
    EXPECT_EQ(c.lba, 42u);
    EXPECT_EQ(c.nsect, 8u);
    EXPECT_TRUE(c.payload.empty());
    // Default cause is the query path.
    EXPECT_EQ(Command::read(0, 1).cause, IoCause::Query);
}

TEST(CommandBuilders, WriteRoundTrip)
{
    std::vector<SectorData> payload = {sector(1), sector(2),
                                       sector(3)};
    const Command c =
        Command::write(16, payload, IoCause::Journal, 9);
    EXPECT_EQ(c.type, CmdType::Write);
    EXPECT_EQ(c.cause, IoCause::Journal);
    EXPECT_EQ(c.lba, 16u);
    // nsect is derived from the payload, never passed separately.
    EXPECT_EQ(c.nsect, 3u);
    ASSERT_EQ(c.payload.size(), 3u);
    EXPECT_EQ(c.payload[0], sector(1));
    EXPECT_EQ(c.payload[2], sector(3));
    EXPECT_EQ(c.version, 9u);
    EXPECT_TRUE(c.unitOob.empty());
}

TEST(CommandBuilders, TrimAndFlushRoundTrip)
{
    const Command t = Command::trim(100, 32);
    EXPECT_EQ(t.type, CmdType::Trim);
    EXPECT_EQ(t.lba, 100u);
    EXPECT_EQ(t.nsect, 32u);

    const Command f = Command::flush();
    EXPECT_EQ(f.type, CmdType::Flush);
    EXPECT_EQ(f.nsect, 0u);
}

TEST(CommandBuilders, CowBuildersCarryPairsAndCheckpointCause)
{
    const CowPair p1 = CowPair::make(10, 1, 200, 6, 5);
    const CowPair p2 = CowPair::make(20, 0, 300, 8, 5, true);

    const Command single = Command::cowSingle(p1);
    EXPECT_EQ(single.type, CmdType::CowSingle);
    EXPECT_EQ(single.cause, IoCause::Checkpoint);
    ASSERT_EQ(single.pairs.size(), 1u);
    EXPECT_EQ(single.pairs[0].src, 10u);

    const Command multi = Command::cowMulti({p1, p2});
    EXPECT_EQ(multi.type, CmdType::CowMulti);
    EXPECT_EQ(multi.cause, IoCause::Checkpoint);
    ASSERT_EQ(multi.pairs.size(), 2u);
    EXPECT_TRUE(multi.pairs[1].forceCopy);

    const Command remap = Command::checkpointRemap({p2});
    EXPECT_EQ(remap.type, CmdType::CheckpointRemap);
    EXPECT_EQ(remap.cause, IoCause::Checkpoint);
    ASSERT_EQ(remap.pairs.size(), 1u);
    EXPECT_EQ(remap.pairs[0].dst, 300u);
}

TEST(CommandBuilders, DeleteLogsRoundTrip)
{
    const Command c = Command::deleteLogs(512, 64);
    EXPECT_EQ(c.type, CmdType::DeleteLogs);
    EXPECT_EQ(c.cause, IoCause::Metadata);
    EXPECT_EQ(c.lba, 512u);
    EXPECT_EQ(c.nsect, 64u);
}

TEST(CommandBuilders, CowPairMakeAndSectorArithmetic)
{
    const CowPair p = CowPair::make(100, 3, 200, 6, 7, true);
    EXPECT_EQ(p.src, 100u);
    EXPECT_EQ(p.srcChunkShift, 3u);
    EXPECT_EQ(p.dst, 200u);
    EXPECT_EQ(p.chunks, 6u);
    EXPECT_EQ(p.version, 7u);
    EXPECT_TRUE(p.forceCopy);
    // 3 + 6 chunks span ceil(9/4) = 3 source sectors; the shift does
    // not apply at the destination: ceil(6/4) = 2.
    EXPECT_EQ(p.srcSectors(), 3u);
    EXPECT_EQ(p.dstSectors(), 2u);
}

TEST(CmdResultContract, RequireGatesOnStatus)
{
    CmdResult ok;
    ok.tick = 77;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.require(), 77u);

    CmdResult bad;
    bad.tick = 88;
    bad.status = CmdStatus::MediaError;
    EXPECT_FALSE(bad.ok());
    EXPECT_THROW(bad.require(), std::runtime_error);
}

TEST(CompletionCallback, TypicalCapturesStayInline)
{
    bool fired = false;
    Tick tick = 0;
    Ssd::Completion cb([&fired, &tick](const CmdResult &r) {
        fired = true;
        tick = r.tick;
    });
    EXPECT_TRUE(cb.isInline());
    CmdResult r;
    r.tick = 5;
    cb(r);
    EXPECT_TRUE(fired);
    EXPECT_EQ(tick, 5u);
}

TEST(CompletionCallback, SubmissionsNeverFallBackToHeap)
{
    SimContext ctx;
    FtlConfig fcfg;
    fcfg.mappingUnitBytes = 512;
    Ssd ssd(ctx, miniNand(), fcfg, SsdConfig{});

    const std::uint64_t before = Ssd::Completion::heapFallbacks();
    std::uint32_t completions = 0;
    for (int i = 0; i < 32; ++i) {
        std::vector<SectorData> payload = {sector(i)};
        ssd.submit(Command::write(Lba(i), std::move(payload),
                                  IoCause::Query, i + 1),
                   [&completions](const CmdResult &r) {
                       r.require();
                       ++completions;
                   });
    }
    ssd.submit(Command::read(0, 8),
               [&completions](const CmdResult &r) {
                   r.require();
                   ++completions;
               });
    ctx.events().run();
    EXPECT_EQ(completions, 33u);
    EXPECT_EQ(Ssd::Completion::heapFallbacks(), before);
}

} // namespace
} // namespace checkin
