/**
 * @file
 * Tests for trace record/replay: round-trip serialization, error
 * handling, deterministic replay, and cross-mode equivalence on an
 * identical request stream.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "test_support.h"
#include "workload/trace.h"

namespace checkin {
namespace {

TEST(Trace, SaveLoadRoundTrip)
{
    WorkloadSpec spec = WorkloadSpec::a();
    spec.seed = 5;
    const Trace t = Trace::generate(spec, 1000, 500);
    std::stringstream ss;
    t.save(ss);
    const Trace back = Trace::load(ss);
    EXPECT_TRUE(t == back);
    EXPECT_EQ(back.size(), 500u);
}

TEST(Trace, AllOpKindsRoundTrip)
{
    using OpType = WorkloadGenerator::OpType;
    Trace t;
    t.add({OpType::Read, 1, 0, 0});
    t.add({OpType::Update, 2, 384, 0});
    t.add({OpType::Rmw, 3, 512, 0});
    t.add({OpType::Scan, 4, 0, 17});
    t.add({OpType::Delete, 5, 0, 0});
    std::stringstream ss;
    t.save(ss);
    EXPECT_TRUE(Trace::load(ss) == t);
}

TEST(Trace, LoadSkipsCommentsAndBlankLines)
{
    std::stringstream ss("# header\n\nR 7\n# tail\nU 8 256\n");
    const Trace t = Trace::load(ss);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.ops()[0].key, 7u);
    EXPECT_EQ(t.ops()[1].valueBytes, 256u);
}

TEST(Trace, LoadRejectsGarbage)
{
    std::stringstream bad1("X 1\n");
    EXPECT_THROW(Trace::load(bad1), std::invalid_argument);
    std::stringstream bad2("U 5\n"); // missing bytes
    EXPECT_THROW(Trace::load(bad2), std::invalid_argument);
}

TEST(Trace, LoadRejectsSignsTrailingTextRangeAndZeroSizes)
{
    // Each record sits on line 2, after a valid one.
    const char *const bad[] = {
        "U -3 100",                // sign
        "U 5 -1",                  // sign (would wrap to 4294967295)
        "R +5",                    // sign
        "R 5x",                    // trailing text in a number
        "U 5 100 7",               // trailing field
        "R",                       // missing key
        "U 5 4294967296",          // above 32 bits
        "R 18446744073709551616",  // above 64 bits
        "U 5 0",                   // zero value size
        "M 5 0",                   // zero value size
        "RR 5",                    // op is one letter
    };
    for (const char *record : bad) {
        std::stringstream ss(std::string("R 1\n") + record + "\n");
        try {
            Trace::load(ss);
            ADD_FAILURE() << "accepted '" << record << "'";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("at line 2"),
                      std::string::npos)
                << e.what();
        }
    }
    // The largest numbers of each field still parse.
    std::stringstream ok("R 18446744073709551615\nS 0 0\n"
                         "U 1 4294967295\n");
    const Trace t = Trace::load(ok);
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t.ops()[0].key, 18446744073709551615u);
    EXPECT_EQ(t.ops()[2].valueBytes, 4294967295u);
}

TEST(Trace, GenerateIsDeterministic)
{
    WorkloadSpec spec = WorkloadSpec::f();
    spec.seed = 11;
    EXPECT_TRUE(Trace::generate(spec, 300, 200) ==
                Trace::generate(spec, 300, 200));
}

EngineConfig
engineCfg(CheckpointMode mode)
{
    EngineConfig c;
    c.mode = mode;
    c.recordCount = 300;
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
        node.load([](std::uint64_t) { return 256u; });
    }

    KvEngine &engine() { return kvEngine(node); }
    const KvEngine &engine() const { return kvEngine(node); }

    /** Final committed version per key. */
    std::vector<std::uint32_t>
    versions() const
    {
        std::vector<std::uint32_t> v(300);
        for (std::uint64_t k = 0; k < 300; ++k)
            v[k] = engine().keymap()[k].version;
        return v;
    }
};

TEST(TraceReplay, CompletesEveryOperation)
{
    Stack s(CheckpointMode::CheckIn);
    WorkloadSpec spec = WorkloadSpec::a();
    const Trace t = Trace::generate(spec, 300, 800);
    TraceReplayer replay(s.ctx, s.engine(), t, 16);
    replay.start();
    while (!replay.done()) {
        ASSERT_TRUE(s.eq.step()) << "deadlock during replay";
    }
    EXPECT_EQ(replay.completed(), 800u);
    s.engine().verifyAllKeys();
}

TEST(TraceReplay, SameTraceSameFinalStateAcrossModes)
{
    WorkloadSpec spec = WorkloadSpec::a();
    spec.seed = 23;
    const Trace t = Trace::generate(spec, 300, 600);
    std::vector<std::uint32_t> reference;
    for (CheckpointMode mode :
         {CheckpointMode::Baseline, CheckpointMode::IscC,
          CheckpointMode::CheckIn}) {
        Stack s(mode);
        TraceReplayer replay(s.ctx, s.engine(), t, 8);
        replay.start();
        while (!replay.done())
            ASSERT_TRUE(s.eq.step());
        s.engine().requestCheckpoint();
        s.eq.run();
        const auto versions = s.versions();
        if (reference.empty())
            reference = versions;
        else
            EXPECT_EQ(versions, reference)
                << "mode " << int(mode) << " diverged";
        s.engine().verifyAllKeys();
    }
}

TEST(TraceReplay, ZeroThreadsIsRejectedInsteadOfSpinning)
{
    // No thread would issue an op, and the checkpoint timer keeps the
    // event queue busy, so done() could never become true.
    Stack s(CheckpointMode::CheckIn);
    const Trace t = Trace::generate(WorkloadSpec::a(), 300, 10);
    EXPECT_THROW(TraceReplayer(s.ctx, s.engine(), t, 0),
                 std::invalid_argument);
    // An empty trace is already done, with or without threads.
    const Trace empty;
    TraceReplayer idle(s.ctx, s.engine(), empty, 0);
    EXPECT_TRUE(idle.done());
}

TEST(TraceReplay, OpsTheEngineCannotTakeAreRejected)
{
    using OpType = WorkloadGenerator::OpType;
    Stack s(CheckpointMode::CheckIn);
    const std::uint32_t max_value = s.engine().config().maxValueBytes;
    const Trace::Op bad[] = {
        {OpType::Read, 300, 0, 0},              // key space is 300
        {OpType::Update, 7, max_value + 1, 0},  // value too large
        {OpType::Rmw, 7, 0, 0},                 // empty value
    };
    for (const Trace::Op &op : bad) {
        Trace t;
        t.add({OpType::Read, 1, 0, 0});
        t.add(op);
        try {
            TraceReplayer(s.ctx, s.engine(), t, 4);
            ADD_FAILURE() << "accepted op on key " << op.key;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("trace op 2:"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TraceReplay, HandlesDeletesInTrace)
{
    Stack s(CheckpointMode::CheckIn);
    using OpType = WorkloadGenerator::OpType;
    Trace t;
    t.add({OpType::Update, 10, 256, 0});
    t.add({OpType::Delete, 10, 0, 0});
    t.add({OpType::Read, 10, 0, 0});
    t.add({OpType::Scan, 5, 0, 10});
    TraceReplayer replay(s.ctx, s.engine(), t, 1);
    replay.start();
    while (!replay.done())
        ASSERT_TRUE(s.eq.step());
    EXPECT_EQ(s.engine().keymap()[10].storedChunks, 0u);
    s.engine().verifyAllKeys();
}

} // namespace
} // namespace checkin
