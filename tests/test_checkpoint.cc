/**
 * @file
 * Cross-strategy checkpoint tests: all five configurations must end
 * with identical logical store contents; their flash-cost ordering
 * must match the paper's (Baseline/ISC-A/ISC-B >> ISC-C > Check-In).
 */

#include <gtest/gtest.h>

#include <map>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "test_support.h"

namespace checkin {
namespace {

EngineConfig
engineCfg(CheckpointMode mode)
{
    EngineConfig c;
    c.mode = mode;
    c.recordCount = 400;
    c.journalHalfBytes = 2 * kMiB;
    c.checkpointJournalBytes = kMiB;
    c.checkpointInterval = 0;
    return c;
}

struct Stack
{
    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node;

    explicit Stack(CheckpointMode mode)
        : node(ctx, stackConfig(engineCfg(mode)))
    {
        node.load([](std::uint64_t k) {
            return std::uint32_t(128 * (1 + k % 4));
        });
    }

    KvEngine &engine() { return kvEngine(node); }
    const KvEngine &engine() const { return kvEngine(node); }

    /** Apply a deterministic update mix and checkpoint twice. */
    void
    exercise()
    {
        Rng rng(99);
        for (int round = 0; round < 2; ++round) {
            for (int i = 0; i < 600; ++i) {
                const std::uint64_t key = rng.nextBounded(400);
                const auto bytes = std::uint32_t(
                    128 * (1 + rng.nextBounded(8))); // 128..1024
                engine().update(key, bytes,
                                [](const QueryResult &) {});
            }
            eq.run();
            engine().requestCheckpoint();
            eq.run();
        }
    }

    /** Logical contents: key -> (version, chunks). */
    std::map<std::uint64_t, std::pair<std::uint32_t, std::uint32_t>>
    contents() const
    {
        std::map<std::uint64_t,
                 std::pair<std::uint32_t, std::uint32_t>> m;
        for (std::uint64_t k = 0; k < 400; ++k) {
            const KeyState &st = engine().keymap()[k];
            m[k] = {st.version, 0};
        }
        return m;
    }
};

class AllModes : public ::testing::TestWithParam<CheckpointMode>
{
};

TEST_P(AllModes, CheckpointPreservesEveryKey)
{
    Stack s(GetParam());
    s.exercise();
    EXPECT_FALSE(s.engine().checkpointInProgress());
    EXPECT_GE(s.engine().checkpointDurations().size(), 2u);
    EXPECT_EQ(s.engine().verifyAllKeys(), 400u);
}

TEST_P(AllModes, CheckpointMovesKeysToDataArea)
{
    Stack s(GetParam());
    for (int i = 0; i < 50; ++i)
        s.engine().update(std::uint64_t(i), 512,
                          [](const QueryResult &) {});
    s.eq.run();
    s.engine().requestCheckpoint();
    s.eq.run();
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(s.engine().keymap()[i].inJournal) << i;
    s.engine().verifyAllKeys();
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AllModes,
    ::testing::Values(CheckpointMode::Baseline, CheckpointMode::IscA,
                      CheckpointMode::IscB, CheckpointMode::IscC,
                      CheckpointMode::CheckIn),
    [](const ::testing::TestParamInfo<CheckpointMode> &info) {
        switch (info.param) {
          case CheckpointMode::Baseline: return "Baseline";
          case CheckpointMode::IscA: return "IscA";
          case CheckpointMode::IscB: return "IscB";
          case CheckpointMode::IscC: return "IscC";
          case CheckpointMode::CheckIn: return "CheckIn";
        }
        return "Unknown";
    });

TEST(StrategyEquivalence, AllModesConvergeToSameVersions)
{
    std::map<std::uint64_t, std::pair<std::uint32_t, std::uint32_t>>
        reference;
    bool first = true;
    for (CheckpointMode mode :
         {CheckpointMode::Baseline, CheckpointMode::IscA,
          CheckpointMode::IscB, CheckpointMode::IscC,
          CheckpointMode::CheckIn}) {
        Stack s(mode);
        s.exercise();
        const auto got = s.contents();
        if (first) {
            reference = got;
            first = false;
        } else {
            EXPECT_EQ(got, reference)
                << "mode " << int(mode)
                << " diverged from baseline contents";
        }
    }
}

TEST(StrategyCost, RemappingBeatsCopyingBeatsHost)
{
    std::map<CheckpointMode, std::uint64_t> redundant;
    std::map<CheckpointMode, std::uint64_t> remaps;
    for (CheckpointMode mode :
         {CheckpointMode::Baseline, CheckpointMode::IscC,
          CheckpointMode::CheckIn}) {
        Stack s(mode);
        s.exercise();
        const Ftl &ftl = s.node.ssd().ftl();
        redundant[mode] =
            ftl.stats().get("ftl.slotWrites.checkpoint") *
            ftl.mappingUnitBytes();
        remaps[mode] = ftl.stats().get("ftl.remaps");
    }
    // Redundant checkpoint bytes: Baseline >> ISC-C > Check-In.
    EXPECT_GT(redundant[CheckpointMode::Baseline],
              2 * redundant[CheckpointMode::IscC]);
    EXPECT_GT(redundant[CheckpointMode::IscC],
              redundant[CheckpointMode::CheckIn]);
    // Only the remapping configurations remap; Check-In remaps more.
    EXPECT_EQ(remaps[CheckpointMode::Baseline], 0u);
    EXPECT_GT(remaps[CheckpointMode::CheckIn],
              remaps[CheckpointMode::IscC]);
}

} // namespace
} // namespace checkin
