/**
 * @file
 * Pluggable checkpoint-trigger policies (engine/checkpoint_policy.h):
 * FixedPolicy must reproduce the historical inline trigger to the
 * integer, the fill-rate estimator must track the journal, and
 * AdaptivePolicy's safety bound must keep the journal from ever
 * overflowing into an append stall — including under open-loop
 * overload and across a sudden power cut.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "engine/checkpoint_policy.h"
#include "harness/experiment.h"
#include "harness/presets.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "test_support.h"

namespace checkin {
namespace {

// ---------------------------------------------------------------------
// FixedPolicy: the paper's trigger, verbatim
// ---------------------------------------------------------------------

TEST(FixedPolicy, MatchesTheHistoricalPredicates)
{
    EngineConfig cfg;
    cfg.checkpointPolicy = CheckpointPolicyKind::Fixed;
    cfg.checkpointInterval = 25 * kMsec;
    cfg.checkpointJournalBytes = 2 * kMiB;
    const auto p = CheckpointPolicy::create(cfg);
    ASSERT_EQ(p->kind(), CheckpointPolicyKind::Fixed);
    EXPECT_EQ(p->timerPeriod(), 25 * kMsec);

    PolicySignals sig;
    sig.journalCapacityBytes = 8 * kMiB;

    // The timer decision is unconditional: the engine itself holds
    // the checkpoint-in-progress guard, exactly as it always did.
    PolicyDecision d = p->onTimer(sig);
    EXPECT_TRUE(d.checkpoint);
    EXPECT_EQ(d.trigger, obs::CkptTrigger::Timer);

    sig.journalBytes = 2 * kMiB - 1;
    EXPECT_FALSE(p->onAppend(sig).checkpoint);
    sig.journalBytes = 2 * kMiB;
    d = p->onAppend(sig);
    EXPECT_TRUE(d.checkpoint);
    EXPECT_EQ(d.trigger, obs::CkptTrigger::JournalBytes);
}

/**
 * Golden equivalence with the pre-policy inline trigger: these are
 * the exact counters the seed produced for `checkin_cli --mode checkin
 * --workload a --threads 32 --ops 20000` before the trigger was
 * extracted into a policy object. The FixedPolicy path evaluates the
 * same predicates at the same ticks with no extra events or RNG
 * draws, so every one of them must still match to the integer.
 */
TEST(FixedPolicy, CheckinGoldenRunIsBitIdenticalToInlineTrigger)
{
    ExperimentConfig cfg = presets::small();
    cfg.engine.mode = CheckpointMode::CheckIn;
    cfg.threads = 32;
    cfg.workload = WorkloadSpec::a();
    cfg.workload.operationCount = 20'000;
    const RunResult r = runExperiment(cfg);
    EXPECT_EQ(r.checkpoints, 4u);
    EXPECT_EQ(r.remaps, 708u);
    EXPECT_EQ(r.redundantSlotWrites, 1351u);
    EXPECT_EQ(r.nandReads, 170u);
    EXPECT_EQ(r.nandPrograms, 1304u);
    EXPECT_EQ(r.nandErases, 0u);
    EXPECT_EQ(r.journalStalls, 0u);
    EXPECT_NEAR(r.throughputOps, 173810.0, 1.0);
}

/** Same golden comparison for the LSM backend's WAL flush trigger. */
TEST(FixedPolicy, LsmGoldenRunIsBitIdenticalToInlineTrigger)
{
    ExperimentConfig cfg = presets::small();
    cfg.engine.backend = EngineBackend::Lsm;
    cfg.engine.mode = CheckpointMode::CheckIn;
    cfg.threads = 32;
    cfg.workload = WorkloadSpec::a();
    cfg.workload.operationCount = 20'000;
    const RunResult r = runExperiment(cfg);
    EXPECT_EQ(r.checkpoints, 19u);
    EXPECT_EQ(r.remaps, 9912u);
    EXPECT_EQ(r.redundantSlotWrites, 36000u);
    EXPECT_EQ(r.nandReads, 3726u);
    EXPECT_EQ(r.nandPrograms, 5992u);
    EXPECT_EQ(r.nandErases, 0u);
    EXPECT_EQ(r.journalStalls, 0u);
    EXPECT_NEAR(r.throughputOps, 38294.0, 1.0);
}

// ---------------------------------------------------------------------
// Fill-rate estimator
// ---------------------------------------------------------------------

TEST(CheckpointPolicy, FillRateEstimatorTracksLinearFill)
{
    EngineConfig cfg;
    cfg.checkpointPolicy = CheckpointPolicyKind::Adaptive;
    const auto p = CheckpointPolicy::create(cfg);
    // 1 MiB per millisecond for 50 ms of appends.
    for (Tick t = 0; t <= 50; ++t)
        p->noteAppend(t * kMsec, t * kMiB);
    const double true_rate = double(kMiB) * 1000.0;
    EXPECT_GT(p->fillRateBytesPerSec(), 0.8 * true_rate);
    EXPECT_LT(p->fillRateBytesPerSec(), 1.3 * true_rate);
    // The slow EWMA (200 ms tau) has seen only a quarter of its time
    // constant, so it must trail the fast estimate.
    EXPECT_LT(p->slowFillRateBytesPerSec(), p->fillRateBytesPerSec());
}

TEST(CheckpointPolicy, LevelDropRestartsBaselineWithoutNegativeDelta)
{
    EngineConfig cfg;
    cfg.checkpointPolicy = CheckpointPolicyKind::Adaptive;
    const auto p = CheckpointPolicy::create(cfg);
    for (Tick t = 0; t <= 20; ++t)
        p->noteAppend(t * kMsec, t * kMiB);
    const double before = p->fillRateBytesPerSec();
    ASSERT_GT(before, 0.0);
    // Half switch: the active-half level collapses to zero. The
    // estimator restarts its baseline; the rate decays but never
    // goes negative and never spikes from the wraparound.
    p->noteAppend(21 * kMsec, 0);
    EXPECT_GE(p->fillRateBytesPerSec(), 0.0);
    EXPECT_LE(p->fillRateBytesPerSec(), before);
}

// ---------------------------------------------------------------------
// AdaptivePolicy: decision rules and the safety bound
// ---------------------------------------------------------------------

TEST(AdaptivePolicy, SafetyBoundFiresRegardlessOfRateTerms)
{
    EngineConfig cfg;
    cfg.checkpointPolicy = CheckpointPolicyKind::Adaptive;
    const auto p = CheckpointPolicy::create(cfg);

    PolicySignals sig;
    sig.journalCapacityBytes = 8 * kMiB;

    // Nearly empty half, no observed fill: nothing to do.
    sig.journalBytes = 64 * kKiB;
    EXPECT_FALSE(p->onAppend(sig).checkpoint);

    // Beyond the absolute safetyFraction backstop (0.80 by default;
    // 7 MiB of 8 is well past it) the policy must checkpoint even
    // with a zero rate estimate.
    sig.journalBytes = 7 * kMiB;
    const PolicyDecision d = p->onAppend(sig);
    EXPECT_TRUE(d.checkpoint);
    EXPECT_EQ(d.trigger, obs::CkptTrigger::Safety);
}

TEST(AdaptivePolicy, OpenLoopOverloadSweepNeverStallsTheJournal)
{
    // Offered load well past the sustainable service rate, with hard
    // bursts: the adaptive trigger may defer, but the safety bound
    // must always start a checkpoint early enough that the active
    // half never fills while the frozen half is still flushing.
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        ExperimentConfig cfg = presets::small();
        cfg.seed = seed;
        cfg.engine.mode = CheckpointMode::CheckIn;
        cfg.engine.checkpointPolicy = CheckpointPolicyKind::Adaptive;
        // A small half so the run's journal traffic crosses the
        // pacing and safety thresholds several times.
        cfg.engine.journalHalfBytes = kMiB;
        cfg.obs.attributionEnabled = true;
        cfg.threads = 32;
        cfg.workload = WorkloadSpec::a();
        cfg.workload.operationCount = 8'000;
        cfg.traffic.mode = LoopMode::Open;
        cfg.traffic.process = ArrivalProcess::Mmpp;
        cfg.traffic.offeredOpsPerSec = 250'000.0;
        cfg.traffic.burstMultiplier = 6.0;
        cfg.traffic.meanBaseDwell = 20 * kMsec;
        cfg.traffic.meanBurstDwell = 20 * kMsec;
        const RunResult r = runExperiment(cfg);
        EXPECT_EQ(r.journalStalls, 0u) << "seed " << seed;
        EXPECT_EQ(r.client.opsCompleted, 8'000u) << "seed " << seed;
        EXPECT_GT(r.checkpoints, 0u) << "seed " << seed;
    }
}

/**
 * Durability across a power cut is identical under the adaptive
 * trigger: every update whose completion the client observed is
 * recovered after a host crash plus device power loss with firmware
 * rebuild, exactly as tests/test_power_loss.cc proves for the fixed
 * trigger.
 */
TEST(AdaptivePolicy, PowerCutRecoveryKeepsCommittedUpdates)
{
    EngineConfig ec;
    ec.mode = CheckpointMode::CheckIn;
    ec.checkpointPolicy = CheckpointPolicyKind::Adaptive;
    ec.recordCount = 300;
    ec.journalHalfBytes = 256 * kKiB;
    ec.checkpointInterval = 0;
    // No periodic controller tick: the event queue must drain once
    // the updates complete, so every decision rides the append path.
    ec.adaptive.controlInterval = 0;
    ec.adaptive.minCheckpointBytes = 32 * kKiB;

    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node(ctx, stackConfig(ec));
    node.load([](std::uint64_t) { return 384u; });

    Rng rng(5);
    std::map<std::uint64_t, std::uint32_t> committed;
    for (int i = 0; i < 600; ++i) {
        const std::uint64_t key = rng.nextBounded(300);
        node.engine().update(
            key, std::uint32_t(128 * (1 + rng.nextBounded(4))),
            [&committed, key, &node](const QueryResult &) {
                committed[key] = kvEngine(node).keymap()[key].version;
            });
    }
    eq.run();

    // Host crash + device power loss with SPOR + firmware rebuild.
    const PowerCutReport report = node.powerCut();
    EXPECT_GT(report.rebuild.slotsRecovered, 0u);
    for (const auto &[key, version] : committed) {
        EXPECT_GE(kvEngine(node).keymap()[key].version, version)
            << "lost key " << key;
    }
    node.engine().verifyAllKeys();
}

} // namespace
} // namespace checkin
