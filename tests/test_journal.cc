/**
 * @file
 * Tests for Algorithm 2 (log size replacement + merging) and the
 * journal manager's group commit / JMT / half-switch machinery.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>

#include "engine/journal.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "test_support.h"

namespace checkin {
namespace {

// ---------------------------------------------------------------------
// formatLogSize (pure Algorithm 2)
// ---------------------------------------------------------------------

// gtest prints a FormatCase as its raw bytes, and ctest names each case
// after that dump. The last three bytes used to be padding holding stack
// leftovers (partly address bits), so the names changed from run to run.
// They are now explicit, set to the bytes the names were first recorded
// with, which keeps every case's name stable.
using NameBytes = std::array<std::uint8_t, 3>;
constexpr NameBytes kName00{0x00, 0x00, 0x00};
constexpr NameBytes kName56{0x56, 0x00, 0x00};
constexpr NameBytes kName7F{0x7F, 0x00, 0x00};
constexpr NameBytes kNameCB{0xCB, 0xC9, 0x00};
constexpr NameBytes kNameFF{0xFF, 0xFF, 0xFF};

struct FormatCase
{
    std::uint32_t valueBytes;
    std::uint32_t unitBytes;
    std::uint32_t wantChunks;
    LogType wantType;
    NameBytes nameBytes;
};
static_assert(sizeof(FormatCase) == 16,
              "FormatCase must have no padding: its bytes name the tests");

class FormatAligned : public ::testing::TestWithParam<FormatCase>
{
};

TEST_P(FormatAligned, MatchesAlgorithm2)
{
    const FormatCase c = GetParam();
    const FormattedSize f =
        formatLogSize(c.valueBytes, c.unitBytes, true, 0.85);
    EXPECT_EQ(f.chunks, c.wantChunks)
        << c.valueBytes << "B @ unit " << c.unitBytes;
    EXPECT_EQ(int(f.type), int(c.wantType));
}

INSTANTIATE_TEST_SUITE_P(
    Unit512, FormatAligned,
    ::testing::Values(
        // <= unit: bucketed to unit/4 = 128 B steps.
        FormatCase{1, 512, 1, LogType::Partial, kNameFF},
        FormatCase{128, 512, 1, LogType::Partial, kName00},
        FormatCase{129, 512, 2, LogType::Partial, kNameCB},
        FormatCase{256, 512, 2, LogType::Partial, kNameCB},
        FormatCase{384, 512, 3, LogType::Partial, kNameFF},
        FormatCase{385, 512, 4, LogType::Full, kNameCB},
        FormatCase{512, 512, 4, LogType::Full, kNameFF},
        // > unit: compressed by 0.85, then unit aligned.
        // 1024 * 0.85 = 871 -> 2 units = 8 chunks.
        FormatCase{1024, 512, 8, LogType::Full, kName00},
        // 4096 * 0.85 = 3482 -> 7 units = 28 chunks.
        FormatCase{4096, 512, 28, LogType::Full, kName00},
        // 513 * 0.85 = 437 -> 1 unit.
        FormatCase{513, 512, 4, LogType::Full, kName7F}));

INSTANTIATE_TEST_SUITE_P(
    Unit4096, FormatAligned,
    ::testing::Values(
        // Buckets of 1024 B = 8 chunks.
        FormatCase{128, 4096, 8, LogType::Partial, kNameCB},
        FormatCase{1024, 4096, 8, LogType::Partial, kNameFF},
        FormatCase{1025, 4096, 16, LogType::Partial, kName56},
        FormatCase{3072, 4096, 24, LogType::Partial, kName56},
        FormatCase{3073, 4096, 32, LogType::Full, kName7F},
        FormatCase{4096, 4096, 32, LogType::Full, kName56}));

TEST(FormatConventional, StoresRawChunkCount)
{
    for (std::uint32_t bytes : {1u, 127u, 128u, 129u, 500u, 512u,
                                4096u}) {
        const FormattedSize f = formatLogSize(bytes, 512, false, 0.85);
        EXPECT_EQ(f.chunks, divCeil(bytes, 128));
        EXPECT_EQ(int(f.type), int(LogType::Raw));
    }
}

TEST(FormatAlignedProperty, FullRecordsAreUnitMultiples)
{
    for (std::uint32_t unit : {512u, 1024u, 2048u, 4096u}) {
        const std::uint32_t uc = unit / 128;
        for (std::uint32_t bytes = 1; bytes <= 4096; bytes += 37) {
            const FormattedSize f =
                formatLogSize(bytes, unit, true, 0.85);
            EXPECT_GE(f.chunks * 128u, 1u);
            if (f.type == LogType::Full)
                EXPECT_EQ(f.chunks % uc, 0u);
            else
                EXPECT_LT(f.chunks, uc);
            // Never smaller than the (compressed) payload.
            if (bytes <= unit) {
                EXPECT_GE(f.chunks * 128u, bytes);
            }
        }
    }
}

// ---------------------------------------------------------------------
// JournalManager behaviour through a real engine stack
// ---------------------------------------------------------------------

struct Stack
{
    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node;

    explicit Stack(CheckpointMode mode, std::uint32_t unit_bytes)
        : node(ctx, config(mode, unit_bytes))
    {
        node.load([](std::uint64_t) { return 256u; });
    }

    static ExperimentConfig
    config(CheckpointMode mode, std::uint32_t unit_bytes)
    {
        EngineConfig ecfg;
        ecfg.mode = mode;
        ecfg.recordCount = 500;
        ecfg.journalHalfBytes = 2 * kMiB;
        ecfg.checkpointJournalBytes = 1536 * kKiB;
        ecfg.checkpointInterval = 0; // manual checkpoints only
        ExperimentConfig c = stackConfig(ecfg);
        c.mappingUnitOverride = unit_bytes;
        return c;
    }

    KvEngine &engine() { return kvEngine(node); }
};

TEST(JournalManager, CommitsUpdateJmtAndKeymap)
{
    Stack s(CheckpointMode::CheckIn, 512);
    int committed = 0;
    for (int i = 0; i < 10; ++i) {
        s.engine().update(std::uint64_t(i), 256,
                          [&](const QueryResult &r) {
                              EXPECT_TRUE(r.found);
                              ++committed;
                          });
    }
    s.eq.run();
    EXPECT_EQ(committed, 10);
    EXPECT_EQ(s.engine().journal().jmtSize(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(s.engine().keymap()[i].inJournal);
        EXPECT_EQ(s.engine().keymap()[i].version, 2u);
    }
    s.engine().verifyAllKeys();
}

TEST(JournalManager, SameKeyKeepsLatestVersionInJmt)
{
    Stack s(CheckpointMode::CheckIn, 512);
    for (int i = 0; i < 5; ++i)
        s.engine().update(7, 200 + i, [](const QueryResult &) {});
    s.eq.run();
    EXPECT_EQ(s.engine().journal().jmtSize(), 1u);
    EXPECT_EQ(s.engine().keymap()[7].version, 6u);
    s.engine().verifyAllKeys();
}

TEST(JournalManager, AlignedModeMergesPartials)
{
    Stack s(CheckpointMode::CheckIn, 512);
    // Many 128 B updates in one burst: they arrive while the first
    // flush is in flight and get group-committed + merged.
    for (int i = 0; i < 64; ++i)
        s.engine().update(std::uint64_t(i), 128,
                          [](const QueryResult &) {});
    s.eq.run();
    EXPECT_GT(s.engine().stats().get("engine.mergedUnits"), 0u);
    s.engine().verifyAllKeys();
}

TEST(JournalManager, ConventionalModePacksChunks)
{
    Stack s(CheckpointMode::Baseline, 4096);
    for (int i = 0; i < 16; ++i)
        s.engine().update(std::uint64_t(i), 384,
                          [](const QueryResult &) {});
    s.eq.run();
    // 16 records x 3 chunks, chunk-packed: exactly 48 chunks stored.
    EXPECT_EQ(s.engine().stats().get("engine.journalChunksStored"),
              48u);
    EXPECT_EQ(s.engine().stats().get("engine.mergedUnits"), 0u);
    s.engine().verifyAllKeys();
}

TEST(JournalManager, AlignedStoresAtLeastPayload)
{
    Stack s(CheckpointMode::CheckIn, 512);
    for (int i = 0; i < 32; ++i)
        s.engine().update(std::uint64_t(i), 300,
                          [](const QueryResult &) {});
    s.eq.run();
    const std::uint64_t stored =
        s.engine().stats().get("engine.journalChunksStored") * 128;
    const std::uint64_t payload =
        s.engine().stats().get("engine.journalPayloadBytes");
    EXPECT_GE(stored, payload);
    // 300 B buckets to 384 B: overhead 28 %.
    EXPECT_NEAR(double(stored) / double(payload), 384.0 / 300.0,
                0.01);
}

TEST(JournalManager, CheckpointSwitchesHalvesAndFreesLogs)
{
    Stack s(CheckpointMode::CheckIn, 512);
    for (int i = 0; i < 20; ++i)
        s.engine().update(std::uint64_t(i), 512,
                          [](const QueryResult &) {});
    s.eq.run();
    EXPECT_EQ(s.engine().journal().activeHalf(), 0);
    const std::uint64_t bytes_before =
        s.engine().journal().activeJournalBytes();
    EXPECT_GT(bytes_before, 0u);
    s.engine().requestCheckpoint();
    s.eq.run();
    EXPECT_FALSE(s.engine().checkpointInProgress());
    EXPECT_EQ(s.engine().journal().activeHalf(), 1);
    EXPECT_EQ(s.engine().journal().jmtSize(), 0u);
    EXPECT_EQ(s.engine().journal().activeJournalBytes(), 0u);
    // Keys now read from the data area.
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(s.engine().keymap()[i].inJournal);
    s.engine().verifyAllKeys();
}

TEST(JournalManager, UpdatesDuringCheckpointLandInNewHalf)
{
    Stack s(CheckpointMode::Baseline, 4096);
    for (int i = 0; i < 20; ++i)
        s.engine().update(std::uint64_t(i), 512,
                          [](const QueryResult &) {});
    s.eq.run();
    s.engine().requestCheckpoint();
    // Issue more updates while the checkpoint runs.
    for (int i = 0; i < 10; ++i)
        s.engine().update(std::uint64_t(100 + i), 512,
                          [](const QueryResult &) {});
    s.eq.run();
    EXPECT_FALSE(s.engine().checkpointInProgress());
    // The new updates live in the new half's JMT.
    EXPECT_EQ(s.engine().journal().jmtSize(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(s.engine().keymap()[100 + i].inJournal);
    s.engine().verifyAllKeys();
}

TEST(JournalManager, SpacePressureTriggersCheckpointAndRecovers)
{
    Stack s(CheckpointMode::CheckIn, 512);
    // Write far more than one half can hold; the engine must cycle
    // checkpoints to keep the journal usable.
    int committed = 0;
    const int total = 12'000;
    for (int i = 0; i < total; ++i) {
        s.engine().update(std::uint64_t(i % 500), 512,
                          [&](const QueryResult &) { ++committed; });
    }
    s.eq.run();
    EXPECT_EQ(committed, total);
    EXPECT_GT(s.engine().checkpointDurations().size(), 0u);
    s.engine().verifyAllKeys();
}

} // namespace
} // namespace checkin
