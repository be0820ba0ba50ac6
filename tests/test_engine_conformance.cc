/**
 * @file
 * Backend-agnostic StorageEngine conformance suite.
 *
 * Every test runs against both backends (`checkin`, `lsm`) through
 * the abstract interface only, so a new backend inherits the whole
 * contract for free: read-your-writes, erase/scan visibility, the
 * checkpoint lock and the coalescing of checkpoint requests,
 * updateBatch atomicity across a sudden power cut, recover()
 * idempotence, and a small crash-oracle campaign per backend.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "engine/storage_engine.h"
#include "harness/crash_oracle.h"
#include "harness/presets.h"
#include "obs/attribution.h"
#include "obs/telemetry.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "test_support.h"

namespace checkin {
namespace {

EngineConfig
engineCfg(EngineBackend backend, bool lock_queries = false)
{
    EngineConfig c;
    c.backend = backend;
    c.lockQueriesDuringCheckpoint = lock_queries;
    c.recordCount = 200;
    c.maxValueBytes = 2048;
    c.journalHalfBytes = kMiB;
    c.checkpointJournalBytes = 256 * kKiB;
    c.checkpointInterval = 0;
    return c;
}

/**
 * Storage node whose engine is built through the backend-independent
 * factory; node.powerCut() models a full power cut (host RAM gone,
 * device SPOR).
 */
struct ConformanceRig
{
    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node;
    /** Last version whose commit callback fired, per key. */
    std::map<std::uint64_t, std::uint32_t> committed;

    explicit ConformanceRig(EngineBackend b, bool lock_queries = false)
        : node(ctx, stackConfig(engineCfg(b, lock_queries)))
    {
        node.load([](std::uint64_t) { return 256u; });
        for (std::uint64_t k = 0; k < 200; ++k)
            committed[k] = 1;
    }

    StorageEngine &engine() { return node.engine(); }
    const StorageEngine &engine() const { return node.engine(); }

    void
    issueUpdates(int n, Rng &rng)
    {
        for (int i = 0; i < n; ++i) {
            const std::uint64_t key = rng.nextBounded(200);
            const auto bytes =
                std::uint32_t(128 * (1 + rng.nextBounded(4)));
            engine().update(key, bytes,
                            [this, key](const QueryResult &) {
                                auto &v = committed[key];
                                const std::uint32_t got =
                                    engine().committedVersion(key);
                                v = std::max(v, got);
                            });
        }
    }

    /** No committed update may be lost; content must verify. */
    void
    checkDurability() const
    {
        for (const auto &[key, version] : committed) {
            EXPECT_GE(engine().committedVersion(key), version)
                << "lost committed update for key " << key;
        }
        engine().verifyAllKeys();
    }
};

class EngineConformance
    : public ::testing::TestWithParam<EngineBackend>
{
};

// ---------------------------------------------------------------------
// Read-your-writes
// ---------------------------------------------------------------------

TEST_P(EngineConformance, GetServesLatestAcknowledgedUpdate)
{
    ConformanceRig rig(GetParam());
    rig.engine().update(7, 1024, [](const QueryResult &) {});
    rig.eq.run();
    EXPECT_EQ(rig.engine().committedVersion(7), 2u);

    bool found = false;
    rig.engine().get(
        7, [&found](const QueryResult &r) { found = r.found; });
    rig.eq.run();
    EXPECT_TRUE(found);
    EXPECT_EQ(rig.engine().verifyAllKeys(), 200u);
}

// ---------------------------------------------------------------------
// Erase + scan visibility
// ---------------------------------------------------------------------

TEST_P(EngineConformance, EraseHidesKeyFromGetAndScan)
{
    ConformanceRig rig(GetParam());
    rig.engine().erase(10, [](const QueryResult &) {});
    rig.eq.run();

    bool found = true;
    rig.engine().get(
        10, [&found](const QueryResult &r) { found = r.found; });
    rig.eq.run();
    EXPECT_FALSE(found) << "deleted key still served";

    // Keys 8..12: only the erased key 10 must be skipped.
    std::uint32_t scanned = 0;
    rig.engine().scan(8, 5, [&scanned](const QueryResult &r) {
        scanned = r.scanned;
    });
    rig.eq.run();
    EXPECT_EQ(scanned, 4u);

    // Re-inserting resurrects the key at a newer version.
    rig.engine().update(10, 512, [](const QueryResult &) {});
    rig.eq.run();
    found = false;
    rig.engine().get(
        10, [&found](const QueryResult &r) { found = r.found; });
    rig.eq.run();
    EXPECT_TRUE(found);
    rig.engine().verifyAllKeys();
}

// ---------------------------------------------------------------------
// Queries locked out by a running checkpoint
// ---------------------------------------------------------------------

TEST_P(EngineConformance, LockedModeDefersEveryQueryKindInIssueOrder)
{
    ConformanceRig rig(GetParam(), /*lock_queries=*/true);
    StorageEngine &eng = rig.engine();
    for (std::uint64_t k = 0; k < 40; ++k)
        eng.update(k, 512, [](const QueryResult &) {});
    rig.eq.run();
    const Tick ckpt_start = rig.eq.now();
    eng.requestCheckpoint();
    ASSERT_TRUE(eng.checkpointInProgress());
    const std::size_t ckpts = eng.checkpointDurations().size();

    // Every query kind, issued while the checkpoint runs. Key 50 is
    // updated, then erased; key 51 is erased, then rewritten by the
    // batch, which also deletes key 52. Only issue order yields the
    // final state checked below.
    std::vector<int> fired(6, 0);
    std::uint32_t scanned = 0;
    const auto expect_after_ckpt = [&](int op) {
        return [&, op](const QueryResult &r) {
            ++fired[op];
            ASSERT_GT(eng.checkpointDurations().size(), ckpts)
                << "op " << op << " completed inside the checkpoint";
            EXPECT_GE(r.done,
                      ckpt_start + eng.checkpointDurations()[ckpts])
                << "op " << op;
            if (op == 4)
                scanned = r.scanned;
        };
    };
    eng.get(3, expect_after_ckpt(0));
    eng.update(50, 1024, expect_after_ckpt(1));
    eng.erase(50, expect_after_ckpt(2));
    eng.erase(51, expect_after_ckpt(3));
    eng.scan(0, 8, expect_after_ckpt(4));
    // Its task is larger than an inline callback: the deferral queue
    // must carry it too.
    eng.updateBatch({{51, 768}, {52, 0}}, expect_after_ckpt(5));
    rig.eq.run();
    EXPECT_EQ(fired, std::vector<int>(6, 1));
    EXPECT_EQ(scanned, 8u);

    EXPECT_EQ(eng.committedVersion(50), 3u);
    EXPECT_EQ(eng.committedVersion(51), 3u);
    EXPECT_EQ(eng.committedVersion(52), 2u);
    const auto found = [&](std::uint64_t key) {
        bool f = false;
        eng.get(key, [&f](const QueryResult &r) { f = r.found; });
        rig.eq.run();
        return f;
    };
    EXPECT_TRUE(found(3));
    EXPECT_FALSE(found(50)) << "erase ran before the update";
    EXPECT_TRUE(found(51)) << "batch ran before the erase";
    EXPECT_FALSE(found(52));
    EXPECT_NO_THROW(eng.verifyAllKeys());
}

// ---------------------------------------------------------------------
// Checkpoint-request lifecycle
// ---------------------------------------------------------------------

TEST_P(EngineConformance, CheckpointRequestsCoalesceAndRefireAsBacklog)
{
    SimContext ctx;
    obs::AttributionCollector attr;
    attr.setEnabled(true);
    obs::TelemetryOptions topts;
    topts.enabled = true;
    obs::TelemetrySampler telem(topts);
    ctx.setAttribution(&attr);
    ctx.setTelemetry(&telem);
    SimContextScope scope(ctx);
    StorageNode node(ctx, stackConfig(engineCfg(GetParam())));
    node.load([](std::uint64_t) { return 256u; });
    EventQueue &eq = ctx.events();
    telem.begin(eq);
    StorageEngine &eng = node.engine();

    // Nothing journaled yet: a request starts nothing.
    eng.requestCheckpoint();
    EXPECT_FALSE(eng.checkpointInProgress());
    eq.run();
    EXPECT_TRUE(eng.checkpointDurations().empty());

    int acked = 0;
    for (std::uint64_t k = 0; k < 40; ++k)
        eng.update(k, 512, [&acked](const QueryResult &) { ++acked; });
    eq.run();
    ASSERT_EQ(acked, 40);
    eng.requestCheckpoint();
    ASSERT_TRUE(eng.checkpointInProgress());

    // A safety trip during the checkpoint coalesces into it, but is
    // still one event and one anomaly.
    const std::uint64_t events = telem.eventCount();
    const std::uint64_t anomalies = telem.anomalyCount();
    eng.requestCheckpoint(obs::CkptTrigger::Safety);
    EXPECT_TRUE(eng.checkpointInProgress());
    EXPECT_TRUE(eng.checkpointDurations().empty());
    EXPECT_EQ(telem.eventCount(), events + 1);
    EXPECT_EQ(telem.anomalyCount(), anomalies + 1);

    // Updates made during the checkpoint give the coalesced request
    // something to do: it re-fires once, as Backlog.
    for (std::uint64_t k = 100; k < 120; ++k)
        eng.update(k, 512, [&acked](const QueryResult &) { ++acked; });
    eq.run();
    EXPECT_EQ(acked, 60);
    EXPECT_FALSE(eng.checkpointInProgress());
    EXPECT_EQ(eng.checkpointDurations().size(), 2u);
    std::vector<std::string> triggers;
    for (const obs::CheckpointStat &s : attr.checkpoints())
        triggers.push_back(obs::ckptTriggerName(s.trigger));
    EXPECT_EQ(triggers, (std::vector<std::string>{"manual", "backlog"}));
    telem.finalize(eq.now());
    EXPECT_EQ(eng.verifyAllKeys(), 200u);
}

// ---------------------------------------------------------------------
// updateBatch atomicity across a power cut
// ---------------------------------------------------------------------

TEST_P(EngineConformance, BatchAtomicAcrossPowerLossSweep)
{
    // Cut power at increasing drain depths around one three-key
    // transaction (two updates + one delete). After recovery the
    // batch must be all-in or all-out, and all-in whenever the ack
    // fired before the cut.
    for (int depth = 0; depth < 14; ++depth) {
        ConformanceRig rig(GetParam());
        std::vector<StorageEngine::BatchOp> ops{
            {20, 1024}, {21, 512}, {22, 0}};
        bool acked = false;
        rig.engine().updateBatch(
            ops, [&acked](const QueryResult &) { acked = true; });
        for (int i = 0; i < depth * 5 && rig.eq.step(); ++i) {
        }
        rig.node.powerCut();
        const bool a20 = rig.engine().committedVersion(20) > 1;
        const bool a21 = rig.engine().committedVersion(21) > 1;
        const bool a22 = rig.engine().committedVersion(22) > 1;
        EXPECT_EQ(a20, a21) << "torn batch at depth " << depth;
        EXPECT_EQ(a20, a22) << "torn batch at depth " << depth;
        if (acked) {
            EXPECT_TRUE(a20)
                << "acked batch lost at depth " << depth;
        }
        rig.engine().verifyAllKeys();
    }
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

TEST_P(EngineConformance, PowerLossLosesNoCommittedUpdate)
{
    ConformanceRig rig(GetParam());
    Rng rng(21);
    rig.issueUpdates(300, rng);
    // Partial drain: some committed, some in flight.
    for (int i = 0; i < 400 && rig.eq.step(); ++i) {
    }
    rig.node.powerCut();
    rig.checkDurability();

    // The recovered store keeps serving and flushing.
    rig.issueUpdates(120, rng);
    rig.eq.run();
    rig.engine().requestCheckpoint();
    rig.eq.run();
    rig.checkDurability();
    EXPECT_EQ(rig.engine().verifyAllKeys(), 200u);
}

TEST_P(EngineConformance, RecoverIsIdempotentOnCleanStore)
{
    ConformanceRig rig(GetParam());
    Rng rng(22);
    rig.issueUpdates(200, rng);
    rig.eq.run();
    rig.node.powerCut();
    rig.checkDurability();
    std::map<std::uint64_t, std::uint32_t> after_first;
    for (std::uint64_t k = 0; k < 200; ++k)
        after_first[k] = rig.engine().committedVersion(k);

    // recover() leaves a clean store: a second crash + recovery has
    // nothing to replay and changes no committed version.
    const RecoveryInfo second = rig.node.powerCut().recovery;
    EXPECT_EQ(second.replayedLogs, 0u);
    for (std::uint64_t k = 0; k < 200; ++k)
        EXPECT_EQ(rig.engine().committedVersion(k), after_first[k])
            << "second recovery changed key " << k;
    rig.checkDurability();
}

// ---------------------------------------------------------------------
// Crash-oracle campaign per backend
// ---------------------------------------------------------------------

TEST_P(EngineConformance, CrashOracleFindsNoLostOrTornWrites)
{
    OracleConfig oc;
    oc.base = presets::small();
    oc.base.engine.backend = GetParam();
    oc.base.engine.recordCount = 200;
    oc.base.engine.journalHalfBytes = 2 * kMiB;
    oc.base.engine.checkpointJournalBytes = kMiB;
    oc.base.nand.blocksPerPlane = 32;
    oc.base.nand.pagesPerBlock = 32;
    oc.seed = 11;
    oc.crashPoints = 6;
    oc.ops = 240;
    const OracleReport r = runCrashOracle(oc);
    EXPECT_TRUE(r.ok()) << "lost=" << r.lostWrites
                        << " torn=" << r.tornRecords;
    EXPECT_EQ(r.crashesRun, oc.crashPoints);
    EXPECT_GT(r.ackedWrites, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineConformance,
    ::testing::Values(EngineBackend::CheckIn, EngineBackend::Lsm),
    [](const ::testing::TestParamInfo<EngineBackend> &info) {
        return info.param == EngineBackend::CheckIn ? "checkin"
                                                    : "lsm";
    });

} // namespace
} // namespace checkin
